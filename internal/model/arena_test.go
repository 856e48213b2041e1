package model

import (
	"bytes"
	"reflect"
	"testing"

	"adhocconsensus/internal/multiset"
)

// arenaFixture builds the same 3-process, 3-round execution twice: once
// through the TraceArena writer protocol (as the engine records it) and
// once as a hand-built legacy map execution. Round 2 crashes process 2, so
// the fixture covers crash cells, silent processes, lost messages, and
// multi-copy receive sets.
func arenaFixture(t *testing.T) (arenaExec, legacyExec *Execution) {
	t.Helper()
	procs := []ProcessID{1, 2, 3}
	initial := map[ProcessID]Value{1: 5, 2: 7, 3: 9}
	est5 := Message{Kind: KindEstimate, Value: 5}
	veto := Message{Kind: KindVeto}
	vote := Message{Kind: KindVote}

	arenaExec = NewExecution(procs, initial)
	a := NewTraceArena(len(procs), 4)
	arenaExec.Arena = a

	pairsOf := func(ms *RecvSet) []RecvEntry { return ms.AppendPairs(nil) }

	// Round 1: p1 sends est(5), p2 sends veto, p3 silent and loses veto.
	row := a.BeginRound(1, 2)
	a.RecordCell(row, 0, &est5, CDNull, CMActive, false)
	a.RecordCell(row, 1, &veto, CDNull, CMPassive, false)
	a.RecordCell(row, 2, nil, CDCollision, CMPassive, false)
	a.FinishCellRecv(pairsOf(multiset.Of(est5, veto)))
	a.FinishCellRecv(pairsOf(multiset.Of(est5, veto)))
	a.FinishCellRecv(pairsOf(multiset.Of(est5)))

	// Round 2: p2 crashes before sending; p1's broadcast reaches p3.
	row = a.BeginRound(2, 1)
	a.RecordCell(row, 0, &est5, CDNull, CMActive, false)
	a.RecordCell(row, 1, nil, CDCollision, CMPassive, true)
	a.RecordCell(row, 2, nil, CDNull, CMPassive, false)
	a.FinishCellRecv(pairsOf(multiset.Of(est5)))
	a.FinishCellRecv(nil)
	a.FinishCellRecv(pairsOf(multiset.Of(est5)))

	// Round 3: p3 votes, p1 loses it entirely.
	row = a.BeginRound(3, 1)
	a.RecordCell(row, 0, nil, CDCollision, CMPassive, false)
	a.RecordCell(row, 1, nil, CDCollision, CMPassive, true)
	a.RecordCell(row, 2, &vote, CDNull, CMActive, false)
	a.FinishCellRecv(nil)
	a.FinishCellRecv(nil)
	a.FinishCellRecv(pairsOf(multiset.Of(vote)))

	arenaExec.Decisions[1] = Decision{Value: 5, Round: 3}

	legacyExec = NewExecution(procs, initial)
	legacyExec.Rounds = []Round{
		{Number: 1, Views: map[ProcessID]View{
			1: {Sent: &est5, Recv: multiset.Of(est5, veto), CD: CDNull, CM: CMActive},
			2: {Sent: &veto, Recv: multiset.Of(est5, veto), CD: CDNull, CM: CMPassive},
			3: {Recv: multiset.Of(est5), CD: CDCollision, CM: CMPassive},
		}},
		{Number: 2, Views: map[ProcessID]View{
			1: {Sent: &est5, Recv: multiset.Of(est5), CD: CDNull, CM: CMActive},
			2: {Crashed: true, Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			3: {Recv: multiset.Of(est5), CD: CDNull, CM: CMPassive},
		}},
		{Number: 3, Views: map[ProcessID]View{
			1: {Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			2: {Crashed: true, Recv: multiset.New[Message](), CD: CDCollision, CM: CMPassive},
			3: {Sent: &vote, Recv: multiset.Of(vote), CD: CDNull, CM: CMActive},
		}},
	}
	legacyExec.Decisions[1] = Decision{Value: 5, Round: 3}
	return arenaExec, legacyExec
}

func TestArenaViewsMatchLegacy(t *testing.T) {
	ae, le := arenaFixture(t)
	if ae.NumRounds() != le.NumRounds() {
		t.Fatalf("rounds: arena %d, legacy %d", ae.NumRounds(), le.NumRounds())
	}
	for r := 1; r <= le.NumRounds(); r++ {
		if ae.RoundNumber(r) != le.RoundNumber(r) {
			t.Fatalf("round %d number: arena %d, legacy %d", r, ae.RoundNumber(r), le.RoundNumber(r))
		}
		for _, id := range le.Procs {
			va, ok1 := ae.View(id, r)
			vl, ok2 := le.View(id, r)
			if !ok1 || !ok2 {
				t.Fatalf("round %d process %d: missing view (arena %v, legacy %v)", r, id, ok1, ok2)
			}
			if !EqualView(va, vl) {
				t.Fatalf("round %d process %d: arena view %+v != legacy view %+v", r, id, va, vl)
			}
		}
	}
}

func TestArenaSendersAndTraces(t *testing.T) {
	ae, le := arenaFixture(t)
	for r := 1; r <= le.NumRounds(); r++ {
		ra, _ := ae.RoundAt(r)
		rl, _ := le.RoundAt(r)
		if ra.Senders() != rl.Senders() {
			t.Fatalf("round %d: arena senders %d, legacy %d", r, ra.Senders(), rl.Senders())
		}
	}
	if !reflect.DeepEqual(ae.TransmissionTrace(), le.TransmissionTrace()) {
		t.Fatal("transmission traces differ")
	}
	if !reflect.DeepEqual(ae.CDTrace(), le.CDTrace()) {
		t.Fatal("CD traces differ")
	}
	if !reflect.DeepEqual(ae.CMTrace(), le.CMTrace()) {
		t.Fatal("CM traces differ")
	}
	if !reflect.DeepEqual(ae.BroadcastCountSequence(), le.BroadcastCountSequence()) {
		t.Fatal("broadcast count sequences differ")
	}
}

func TestArenaIndistinguishability(t *testing.T) {
	ae, le := arenaFixture(t)
	ae2, _ := arenaFixture(t)
	for _, id := range le.Procs {
		// Arena ↔ arena takes the column fast path; arena ↔ legacy
		// materializes. All directions must agree.
		if !ae.IndistinguishableTo(ae2, id, 3) {
			t.Fatalf("process %d distinguishes identical arena executions", id)
		}
		if !ae.IndistinguishableTo(le, id, 3) || !le.IndistinguishableTo(ae, id, 3) {
			t.Fatalf("process %d distinguishes arena from equivalent legacy execution", id)
		}
	}
	// Perturb one recv multiset in the legacy copy: process 3 must now
	// distinguish them at round 3, but process 1 (same views) must not.
	v := le.Rounds[2].Views[3]
	v.Recv = multiset.Of(Message{Kind: KindVote}, Message{Kind: KindVote})
	le.Rounds[2].Views[3] = v
	if ae.IndistinguishableTo(le, 3, 3) {
		t.Fatal("process 3 fails to distinguish a perturbed receive set")
	}
	if !ae.IndistinguishableTo(le, 1, 3) {
		t.Fatal("process 1 wrongly distinguishes executions that differ only at process 3")
	}
}

func TestArenaValidateAndECF(t *testing.T) {
	ae, le := arenaFixture(t)
	if err := ae.Validate(); err != nil {
		t.Fatalf("arena execution invalid: %v", err)
	}
	if err := le.Validate(); err != nil {
		t.Fatalf("legacy execution invalid: %v", err)
	}
	// Rounds 2 and 3 have lone broadcasters; round 3's vote is lost at p1,
	// so ECF can hold from round 4 (vacuously) but not from round 3 or 1.
	for _, e := range []*Execution{ae, le} {
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

func TestArenaExportMatchesLegacy(t *testing.T) {
	ae, le := arenaFixture(t)
	var ab, lb bytes.Buffer
	if err := ae.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := le.WriteJSON(&lb); err != nil {
		t.Fatal(err)
	}
	if ab.String() != lb.String() {
		t.Fatalf("arena export differs from legacy export:\narena:\n%s\nlegacy:\n%s", ab.String(), lb.String())
	}
	if ae.String() != le.String() {
		t.Fatalf("String() differs:\narena:\n%s\nlegacy:\n%s", ae.String(), le.String())
	}
}

func TestMaterializeRoundsEqualsArena(t *testing.T) {
	ae, le := arenaFixture(t)
	mat := ae.MaterializeRounds()
	if len(mat) != ae.NumRounds() {
		t.Fatalf("materialized %d rounds, want %d", len(mat), ae.NumRounds())
	}
	// The materialized legacy shape must answer every accessor like the
	// arena did — including after the escape hatch is installed as Rounds.
	me := NewExecution(ae.Procs, ae.Initial)
	me.Rounds = mat
	for r := 1; r <= ae.NumRounds(); r++ {
		for _, id := range ae.Procs {
			va, _ := ae.View(id, r)
			vm, ok := me.View(id, r)
			if !ok || !EqualView(va, vm) {
				t.Fatalf("round %d process %d: materialized view differs", r, id)
			}
		}
	}
	if err := me.Validate(); err != nil {
		t.Fatalf("materialized execution invalid: %v", err)
	}
	var mb, lb bytes.Buffer
	me.Decisions[1] = Decision{Value: 5, Round: 3}
	if err := me.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := le.WriteJSON(&lb); err != nil {
		t.Fatal(err)
	}
	if mb.String() != lb.String() {
		t.Fatal("materialized export differs from legacy export")
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
