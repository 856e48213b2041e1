package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"adhocconsensus/internal/multiset"
)

// fixtureProcs are the arena fixture's processes, in table order.
var fixtureProcs = []ProcessID{1, 2, 3}

// fixtureViews writes the 3-process, 3-round fixture by hand: views[k][i]
// is fixtureProcs[i]'s view of round k+1. Round 2 crashes process 2, so the
// fixture covers crash cells, silent processes, lost messages, and
// multi-copy receive sets. Each call returns fresh views.
func fixtureViews() [][]View {
	est5 := Message{Kind: KindEstimate, Value: 5}
	veto := Message{Kind: KindVeto}
	vote := Message{Kind: KindVote}
	return [][]View{
		// Round 1: p1 sends est(5), p2 and p3 send veto; p1 hears both
		// vetoes, p2 loses p3's, and p3 hears only its own.
		{
			{Sent: &est5, Recv: multiset.Of(est5, veto, veto), CD: CDNull, CM: CMActive},
			{Sent: &veto, Recv: multiset.Of(est5, veto), CD: CDCollision, CM: CMPassive},
			{Sent: &veto, Recv: multiset.Of(veto), CD: CDCollision, CM: CMActive},
		},
		// Round 2: p2 crashes before sending; p1's broadcast reaches p3.
		{
			{Sent: &est5, Recv: multiset.Of(est5), CD: CDNull, CM: CMActive},
			{Crashed: true, Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			{Recv: multiset.Of(est5), CD: CDNull, CM: CMPassive},
		},
		// Round 3: p3 votes, p1 loses it entirely.
		{
			{Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			{Crashed: true, Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			{Sent: &vote, Recv: multiset.Of(vote), CD: CDNull, CM: CMActive},
		},
	}
}

// arenaFixture records fixtureViews through the TraceArena writer protocol
// and returns the execution together with the views it was recorded from,
// the oracle its accessors must reproduce.
func arenaFixture() (*Execution, [][]View) {
	views := fixtureViews()
	e := record(fixtureProcs, map[ProcessID]Value{1: 5, 2: 7, 3: 9}, views)
	e.Decisions[1] = Decision{Value: 5, Round: 3}
	return e, views
}

// TestArenaViewsMatchLegacy checks every materialized view against the
// hand-written view it was recorded from.
func TestArenaViewsMatchLegacy(t *testing.T) {
	e, want := arenaFixture()
	if e.NumRounds() != len(want) {
		t.Fatalf("recorded %d rounds, want %d", e.NumRounds(), len(want))
	}
	for r := 1; r <= len(want); r++ {
		rd, ok := e.RoundAt(r)
		if !ok || rd.Number != r || e.RoundNumber(r) != r {
			t.Fatalf("round %d: RoundAt (%d, %v), RoundNumber %d", r, rd.Number, ok, e.RoundNumber(r))
		}
		for i, id := range fixtureProcs {
			v, ok1 := e.View(id, r)
			rv, ok2 := rd.ViewOf(id)
			if !ok1 || !ok2 {
				t.Fatalf("round %d process %d: missing view (View %v, ViewOf %v)", r, id, ok1, ok2)
			}
			if !EqualView(v, want[r-1][i]) || !EqualView(rv, want[r-1][i]) {
				t.Fatalf("round %d process %d: recorded view %+v, want %+v", r, id, v, want[r-1][i])
			}
		}
	}
	for _, probe := range []struct {
		id ProcessID
		r  int
	}{{1, 0}, {1, 4}, {4, 1}} {
		if _, ok := e.View(probe.id, probe.r); ok {
			t.Fatalf("View(%d, %d) reported a view outside the recorded execution", probe.id, probe.r)
		}
	}
}

func TestArenaSendersAndTraces(t *testing.T) {
	e, want := arenaFixture()
	wantTT := make(TransmissionTrace, len(want))
	wantCD := make(CDTrace, len(want))
	wantCM := make(CMTrace, len(want))
	for k, views := range want {
		senders := sendersOf(views)
		if rd, _ := e.RoundAt(k + 1); rd.Senders() != senders {
			t.Fatalf("round %d: senders %d, want %d", k+1, rd.Senders(), senders)
		}
		wantTT[k] = RoundTransmission{Senders: senders, Received: make(map[ProcessID]int)}
		wantCD[k] = make(map[ProcessID]CDAdvice)
		wantCM[k] = make(map[ProcessID]CMAdvice)
		for i, id := range fixtureProcs {
			wantTT[k].Received[id] = views[i].Recv.Len()
			wantCD[k][id] = views[i].CD
			wantCM[k][id] = views[i].CM
		}
	}
	if got := e.TransmissionTrace(); !reflect.DeepEqual(got, wantTT) {
		t.Fatalf("transmission trace %v, want %v", got, wantTT)
	}
	if got := e.CDTrace(); !reflect.DeepEqual(got, wantCD) {
		t.Fatalf("CD trace %v, want %v", got, wantCD)
	}
	if got := e.CMTrace(); !reflect.DeepEqual(got, wantCM) {
		t.Fatalf("CM trace %v, want %v", got, wantCM)
	}
	// Three broadcasters in round 1, a lone one in rounds 2 and 3.
	wantBC := []BroadcastCountSymbol{CountTwoPlus, CountOne, CountOne}
	if got := e.BroadcastCountSequence(); !reflect.DeepEqual(got, wantBC) {
		t.Fatalf("broadcast count sequence %v, want %v", got, wantBC)
	}
}

// TestArenaIndistinguishability checks the arena's column comparison
// against EqualView over the hand-written views: for every perturbation of
// the fixture's views, every process, and every prefix, IndistinguishableTo
// must agree with comparing the views round by round.
func TestArenaIndistinguishability(t *testing.T) {
	e, want := arenaFixture()
	est5 := Message{Kind: KindEstimate, Value: 5}
	est6 := Message{Kind: KindEstimate, Value: 6}
	vote := Message{Kind: KindVote}
	veto := Message{Kind: KindVeto}
	perturbations := map[string]func(v [][]View){
		"identical":           func([][]View) {},
		"recv copies":         func(v [][]View) { v[2][2].Recv = multiset.Of(vote, vote) },
		"recv multiplicity":   func(v [][]View) { v[0][0].Recv = multiset.Of(est5, est5, veto) },
		"recv element":        func(v [][]View) { v[0][2].Recv = multiset.Of(est5) },
		"recv second element": func(v [][]View) { v[0][0].Recv = multiset.Of(est5, vote, vote) },
		"recv value":          func(v [][]View) { v[1][2].Recv = multiset.Of(est6) },
		"recv lost":           func(v [][]View) { v[1][0].Recv = multiset.New[Message]() },
		"sent value":          func(v [][]View) { v[0][0].Sent = &est6 },
		"sent silenced":       func(v [][]View) { v[2][2].Sent = nil },
		"collision advice":    func(v [][]View) { v[1][2].CD = CDCollision },
		"contention advice":   func(v [][]View) { v[0][1].CM = CMActive },
		"crash":               func(v [][]View) { v[2][0].Crashed = true },
		"two rounds differ":   func(v [][]View) { v[0][1].CD = CDCollision; v[2][1].CM = CMActive },
		"every process sees":  func(v [][]View) { v[1][0].CD, v[1][1].CM, v[1][2].Crashed = CDCollision, CMActive, true },
	}
	for name, perturb := range perturbations {
		other := fixtureViews()
		perturb(other)
		oe := record(fixtureProcs, e.Initial, other)
		for i, id := range fixtureProcs {
			for r := 1; r <= len(want); r++ {
				same := true
				for k := 0; k < r; k++ {
					same = same && EqualView(want[k][i], other[k][i])
				}
				if got := e.IndistinguishableTo(oe, id, r); got != same {
					t.Fatalf("%s: process %d through round %d: IndistinguishableTo %v, EqualView %v", name, id, r, got, same)
				}
				if got := oe.IndistinguishableTo(e, id, r); got != same {
					t.Fatalf("%s: process %d through round %d: reversed IndistinguishableTo %v, EqualView %v", name, id, r, got, same)
				}
			}
		}
	}
	if e.IndistinguishableTo(e, 1, len(want)+1) {
		t.Fatal("indistinguishability beyond the recorded rounds must be false")
	}
	if e.IndistinguishableTo(e, 4, 1) {
		t.Fatal("a process outside the table must not be indistinguishable")
	}
}

func TestArenaValidateAndECF(t *testing.T) {
	e, _ := arenaFixture()
	if err := e.Validate(); err != nil {
		t.Fatalf("arena execution invalid: %v", err)
	}
	// Rounds 2 and 3 have lone broadcasters; round 3's vote is lost at p1,
	// so ECF can hold from round 4 (vacuously) but not from round 3 or 1.
	if !e.SatisfiesECFFrom(4) {
		t.Fatal("ECF must hold vacuously beyond the last round")
	}
	if e.SatisfiesECFFrom(3) {
		t.Fatal("ECF from 3 must fail: p1 lost the lone vote")
	}
	if e.SatisfiesECFFrom(2) {
		t.Fatal("ECF from 2 must fail: round 3 still loses the lone vote")
	}
}

func TestArenaValidateCatchesViolations(t *testing.T) {
	procs := []ProcessID{1, 2}
	est := Message{Kind: KindEstimate, Value: 1}
	build := func(mutate func(a *TraceArena)) *Execution {
		e := NewExecution(procs, nil)
		a := NewTraceArena(2, 1)
		e.Arena = a
		row := a.BeginRound(1, 1)
		a.RecordCell(row, 0, &est, CDNull, CMActive, false)
		a.RecordCell(row, 1, nil, CDNull, CMPassive, false)
		if mutate != nil {
			mutate(a)
			return e
		}
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 1}})
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 1}})
		return e
	}
	if err := build(nil).Validate(); err != nil {
		t.Fatalf("legal round rejected: %v", err)
	}
	// Integrity: p2 receives two copies of a message sent once.
	e := build(func(a *TraceArena) {
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 1}})
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 2}})
	})
	verr, ok := e.Validate().(*ValidationError)
	if !ok || verr.Constraint != "integrity" {
		t.Fatalf("duplicated delivery not caught: %v", e.Validate())
	}
	// Self-delivery: the broadcaster p1 receives nothing.
	e = build(func(a *TraceArena) {
		a.FinishCellRecv(nil)
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 1}})
	})
	verr, ok = e.Validate().(*ValidationError)
	if !ok || verr.Constraint != "self-delivery" {
		t.Fatalf("missing self-delivery not caught: %v", e.Validate())
	}
}

// fixtureJSON is the fixture's export: processes and rounds ascending,
// received messages sorted, crashed cells flagged, and no receive list for
// a process that received nothing.
const fixtureJSON = `{"processes":[1,2,3],"initial":{"1":5,"2":7,"3":9},"rounds":[` +
	`{"round":1,"views":[` +
	`{"process":1,"sent":{"kind":"est","value":5},"received":[{"kind":"est","value":5},{"kind":"veto"},{"kind":"veto"}],"cd":"null","cm":"active"},` +
	`{"process":2,"sent":{"kind":"veto"},"received":[{"kind":"est","value":5},{"kind":"veto"}],"cd":"collision","cm":"passive"},` +
	`{"process":3,"sent":{"kind":"veto"},"received":[{"kind":"veto"}],"cd":"collision","cm":"active"}]},` +
	`{"round":2,"views":[` +
	`{"process":1,"sent":{"kind":"est","value":5},"received":[{"kind":"est","value":5}],"cd":"null","cm":"active"},` +
	`{"process":2,"cd":"collision","cm":"passive","crashed":true},` +
	`{"process":3,"received":[{"kind":"est","value":5}],"cd":"null","cm":"passive"}]},` +
	`{"round":3,"views":[` +
	`{"process":1,"cd":"collision","cm":"passive"},` +
	`{"process":2,"cd":"collision","cm":"passive","crashed":true},` +
	`{"process":3,"sent":{"kind":"vote"},"received":[{"kind":"vote"}],"cd":"null","cm":"active"}]}],` +
	`"decisions":[{"process":1,"value":5,"round":3}]}`

// fixtureString is the fixture's String rendering.
const fixtureString = `r1    p1: tx=est(5) rx=3 cd=null cm=active  p2: tx=veto rx=2 cd=± cm=passive  p3: tx=veto rx=1 cd=± cm=active
r2    p1: tx=est(5) rx=1 cd=null cm=active  p2: CRASHED  p3: tx=- rx=1 cd=null cm=passive
r3    p1: tx=- rx=0 cd=± cm=passive  p2: CRASHED  p3: tx=vote rx=1 cd=null cm=active
p1 decided 5 at round 3
`

// TestArenaExportMatchesLegacy pins the fixture's JSON export and String
// rendering to the text its hand-written views describe.
func TestArenaExportMatchesLegacy(t *testing.T) {
	e, _ := arenaFixture()
	var buf, compact bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if compact.String() != fixtureJSON {
		t.Fatalf("export differs:\ngot  %s\nwant %s", compact.String(), fixtureJSON)
	}
	if e.String() != fixtureString {
		t.Fatalf("String() differs:\ngot:\n%s\nwant:\n%s", e.String(), fixtureString)
	}
}

// TestArenaResetClearsBroadcastFlags is the reuse-safety test: after a run
// full of broadcasts, Reset must leave no stale hasSent bit behind —
// otherwise a reused arena would fabricate broadcasts in cells the next run
// leaves silent (every other column is overwritten unconditionally).
func TestArenaResetClearsBroadcastFlags(t *testing.T) {
	est := Message{Kind: KindEstimate, Value: 3}
	a := NewTraceArena(2, 2)
	for r := 1; r <= 3; r++ {
		row := a.BeginRound(r, 2)
		a.RecordCell(row, 0, &est, CDNull, CMActive, false)
		a.RecordCell(row, 1, &est, CDNull, CMActive, false)
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 2}})
		a.FinishCellRecv([]RecvEntry{{Elem: est, Count: 2}})
	}
	a.Reset()
	if a.NumRounds() != 0 {
		t.Fatalf("reset arena still reports %d rounds", a.NumRounds())
	}
	// Re-record over the same memory, everyone silent this time.
	row := a.BeginRound(1, 0)
	a.RecordCell(row, 0, nil, CDNull, CMPassive, false)
	a.RecordCell(row, 1, nil, CDNull, CMPassive, false)
	a.FinishCellRecv(nil)
	a.FinishCellRecv(nil)
	for i := 0; i < 2; i++ {
		if _, sent := a.Sent(0, i); sent {
			t.Fatalf("reused arena fabricated a broadcast for process index %d", i)
		}
		if a.RecvLen(0, i) != 0 || len(a.RecvPairs(0, i)) != 0 {
			t.Fatalf("reused arena kept a stale receive segment for process index %d", i)
		}
	}
}

// TestAcquireReleaseRoundTrip exercises the (rounds, n) reuse pool end to
// end: a released execution's arena comes back reset and shaped for the
// same configuration, and Release is idempotent/safe on executions without
// an arena.
func TestAcquireReleaseRoundTrip(t *testing.T) {
	a := AcquireTraceArena(3, 64)
	if a.Procs() != 3 || a.NumRounds() != 0 {
		t.Fatalf("acquired arena has n=%d rounds=%d", a.Procs(), a.NumRounds())
	}
	e := NewExecution([]ProcessID{1, 2, 3}, nil)
	e.Arena = a
	row := a.BeginRound(1, 0)
	for i := 0; i < 3; i++ {
		a.RecordCell(row, i, nil, CDNull, CMPassive, false)
		a.FinishCellRecv(nil)
	}
	e.Release()
	if e.Arena != nil {
		t.Fatal("Release left the arena attached")
	}
	if e.HasViews() {
		t.Fatal("released execution still reports views")
	}
	e.Release() // idempotent
	b := AcquireTraceArena(3, 64)
	if b.Procs() != 3 || b.NumRounds() != 0 {
		t.Fatalf("re-acquired arena has n=%d rounds=%d, want a reset 3-process arena", b.Procs(), b.NumRounds())
	}
}

func TestArenaWriterProtocolGuards(t *testing.T) {
	a := NewTraceArena(2, 1)
	a.BeginRound(1, 0)
	a.FinishCellRecv(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("BeginRound with an unfinished row must panic")
		}
	}()
	a.BeginRound(2, 0)
}
