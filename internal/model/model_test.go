package model

import (
	"testing"

	"adhocconsensus/internal/multiset"
)

func est(v Value) *Message { return &Message{Kind: KindEstimate, Value: v} }
func recvOf(ms ...Message) *RecvSet {
	return multiset.Of(ms...)
}

func TestMessageString(t *testing.T) {
	tests := []struct {
		give Message
		want string
	}{
		{Message{Kind: KindEstimate, Value: 7}, "est(7)"},
		{Message{Kind: KindVeto}, "veto"},
		{Message{Kind: KindVote}, "vote"},
		{Message{Kind: KindLeaderValue, Value: 3}, "leaderval(3)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestAdviceStrings(t *testing.T) {
	if CDNull.String() != "null" || CDCollision.String() != "±" {
		t.Error("CDAdvice strings wrong")
	}
	if CMActive.String() != "active" || CMPassive.String() != "passive" {
		t.Error("CMAdvice strings wrong")
	}
}

func TestScheduleBeforeSend(t *testing.T) {
	s := Schedule{1: {Round: 3, Time: CrashBeforeSend}}
	if s.CrashedForSend(1, 2) || s.CrashedForDeliver(1, 2) {
		t.Error("crashed too early")
	}
	if !s.CrashedForSend(1, 3) {
		t.Error("BeforeSend crash must cover the send phase of its round")
	}
	if !s.CrashedForDeliver(1, 3) || !s.CrashedForSend(1, 4) {
		t.Error("crash must be permanent")
	}
	if s.CrashedForSend(2, 100) {
		t.Error("unscheduled process must never crash")
	}
}

func TestScheduleAfterSend(t *testing.T) {
	s := Schedule{5: {Round: 2, Time: CrashAfterSend}}
	if s.CrashedForSend(5, 2) {
		t.Error("AfterSend crash must allow the send phase of its round")
	}
	if !s.CrashedForDeliver(5, 2) {
		t.Error("AfterSend crash must cover the deliver phase of its round")
	}
	if !s.CrashedForSend(5, 3) {
		t.Error("crash must be permanent")
	}
}

func TestScheduleLastCrashRound(t *testing.T) {
	if (Schedule{}).LastCrashRound() != 0 {
		t.Error("empty schedule must report round 0")
	}
	s := Schedule{1: {Round: 4}, 2: {Round: 9}, 3: {Round: 2}}
	if got := s.LastCrashRound(); got != 9 {
		t.Errorf("LastCrashRound = %d, want 9", got)
	}
}

func TestEqualView(t *testing.T) {
	base := View{Sent: est(1), Recv: recvOf(*est(1)), CD: CDNull, CM: CMActive}
	same := View{Sent: est(1), Recv: recvOf(*est(1)), CD: CDNull, CM: CMActive}
	if !EqualView(base, same) {
		t.Fatal("identical views must be equal")
	}
	tests := []struct {
		name string
		give View
	}{
		{"different sent", View{Sent: est(2), Recv: recvOf(*est(1)), CD: CDNull, CM: CMActive}},
		{"nil sent", View{Recv: recvOf(*est(1)), CD: CDNull, CM: CMActive}},
		{"different recv", View{Sent: est(1), Recv: recvOf(*est(1), *est(2)), CD: CDNull, CM: CMActive}},
		{"different cd", View{Sent: est(1), Recv: recvOf(*est(1)), CD: CDCollision, CM: CMActive}},
		{"different cm", View{Sent: est(1), Recv: recvOf(*est(1)), CD: CDNull, CM: CMPassive}},
		{"crashed", View{Sent: est(1), Recv: recvOf(*est(1)), CD: CDNull, CM: CMActive, Crashed: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if EqualView(base, tt.give) {
				t.Error("views must differ")
			}
		})
	}
}

func TestEqualViewEmptyRecvForms(t *testing.T) {
	a := View{Recv: multiset.New[Message](), CD: CDNull, CM: CMPassive}
	b := View{Recv: nil, CD: CDNull, CM: CMPassive}
	if !EqualView(a, b) {
		t.Error("nil recv and empty recv must compare equal")
	}
}

// record builds an execution over the sorted procs through the TraceArena
// writer protocol, exactly as the engine records one: rounds[k][i] is
// procs[i]'s view of round k+1. The hand-written views are the oracle every
// accessor is checked against.
func record(procs []ProcessID, initial map[ProcessID]Value, rounds [][]View) *Execution {
	e := NewExecution(procs, initial)
	a := NewTraceArena(len(procs), len(rounds))
	e.Arena = a
	for k, views := range rounds {
		row := a.BeginRound(k+1, sendersOf(views))
		for i, v := range views {
			a.RecordCell(row, i, v.Sent, v.CD, v.CM, v.Crashed)
		}
		for _, v := range views {
			var pairs []RecvEntry
			if v.Recv != nil {
				pairs = v.Recv.AppendPairs(nil)
			}
			a.FinishCellRecv(pairs)
		}
	}
	return e
}

// sendersOf counts a round's broadcasters from its views.
func sendersOf(views []View) int {
	c := 0
	for _, v := range views {
		if v.Sent != nil {
			c++
		}
	}
	return c
}

// buildExec records a 2-process execution where process 1 broadcasts
// est(v1) every round and both receive it. Each edit rewrites the views
// before they are recorded.
func buildExec(v1 Value, rounds int, edits ...func(views [][]View)) *Execution {
	views := make([][]View, rounds)
	for r := range views {
		msg := est(v1)
		views[r] = []View{
			{Sent: msg, Recv: recvOf(*msg), CD: CDNull, CM: CMActive},
			{Recv: recvOf(*msg), CD: CDNull, CM: CMPassive},
		}
	}
	for _, edit := range edits {
		edit(views)
	}
	return record([]ProcessID{1, 2}, map[ProcessID]Value{1: v1, 2: v1 + 1}, views)
}

func TestExecutionTraces(t *testing.T) {
	e := buildExec(5, 3)
	tt := e.TransmissionTrace()
	if len(tt) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tt))
	}
	for r, rt := range tt {
		if rt.Senders != 1 {
			t.Errorf("round %d senders = %d, want 1", r+1, rt.Senders)
		}
		if rt.Received[1] != 1 || rt.Received[2] != 1 {
			t.Errorf("round %d receive counts wrong: %v", r+1, rt.Received)
		}
	}
	cdt := e.CDTrace()
	if cdt[0][1] != CDNull || cdt[0][2] != CDNull {
		t.Error("CD trace wrong")
	}
	cmt := e.CMTrace()
	if cmt[0][1] != CMActive || cmt[0][2] != CMPassive {
		t.Error("CM trace wrong")
	}
}

func TestBroadcastCountSequence(t *testing.T) {
	m := est(1)
	e := record([]ProcessID{1, 2}, nil, [][]View{
		{{Recv: multiset.New[Message]()}, {Recv: multiset.New[Message]()}},
		{{Sent: m, Recv: recvOf(*m)}, {Recv: multiset.New[Message]()}},
		{{Sent: m, Recv: recvOf(*m)}, {Sent: m, Recv: recvOf(*m)}},
	})
	got := e.BroadcastCountSequence()
	want := []BroadcastCountSymbol{CountZero, CountOne, CountTwoPlus}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("symbol %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !SameBroadcastCountPrefix(got, want, 3) {
		t.Error("identical sequences must share their prefix")
	}
	if SameBroadcastCountPrefix(got, want[:2], 3) {
		t.Error("prefix check must fail when a sequence is too short")
	}
}

func TestIndistinguishability(t *testing.T) {
	a := buildExec(5, 4)
	b := buildExec(5, 4)
	if !a.IndistinguishableTo(b, 1, 4) || !a.IndistinguishableTo(b, 2, 4) {
		t.Fatal("identical executions must be indistinguishable")
	}
	c := buildExec(6, 4)
	if a.IndistinguishableTo(c, 2, 1) {
		t.Fatal("different broadcast values must be distinguishable")
	}
	if a.IndistinguishableTo(b, 1, 5) {
		t.Fatal("indistinguishability beyond recorded rounds must be false")
	}
}

func TestValidateAcceptsLegalExecution(t *testing.T) {
	if err := buildExec(5, 3).Validate(); err != nil {
		t.Fatalf("legal execution rejected: %v", err)
	}
}

func TestValidateRejectsIntegrityViolation(t *testing.T) {
	// Process 2 receives a message nobody sent.
	e := buildExec(5, 1, func(v [][]View) { v[0][1].Recv = recvOf(*est(99)) })
	requireViolation(t, e, 1, 2, "integrity")
}

func TestValidateRejectsSelfDeliveryViolation(t *testing.T) {
	// The broadcaster lost its own message.
	e := buildExec(5, 1, func(v [][]View) { v[0][0].Recv = multiset.New[Message]() })
	requireViolation(t, e, 1, 1, "self-delivery")
}

func TestValidateRejectsResurrection(t *testing.T) {
	// Process 2 is crashed in round 1 and alive again in round 2.
	e := buildExec(5, 2, func(v [][]View) { v[0][1].Crashed = true })
	verr := requireViolation(t, e, 2, 2, "fail-state")
	if verr.Detail != "crashed process resurrected" {
		t.Fatalf("wrong fail-state detail: %v", verr)
	}
}

func TestValidateRejectsCrashedBroadcaster(t *testing.T) {
	// Process 1 is crashed but still broadcasts.
	e := buildExec(5, 1, func(v [][]View) { v[0][0].Crashed = true })
	verr := requireViolation(t, e, 1, 1, "fail-state")
	if verr.Detail != "crashed process broadcast" {
		t.Fatalf("wrong fail-state detail: %v", verr)
	}
}

// requireViolation asserts that e fails validation at (round, process)
// with the given constraint.
func requireViolation(t *testing.T, e *Execution, round int, process ProcessID, constraint string) *ValidationError {
	t.Helper()
	err := e.Validate()
	verr, ok := err.(*ValidationError)
	if !ok || verr.Round != round || verr.Process != process || verr.Constraint != constraint {
		t.Fatalf("got %v, want a %s violation at round %d, process %d", err, constraint, round, process)
	}
	return verr
}

func TestSatisfiesECF(t *testing.T) {
	e := buildExec(5, 3)
	if !e.SatisfiesECFFrom(1) {
		t.Fatal("lossless single-sender execution must satisfy ECF from round 1")
	}
	// Make round 2 a lone broadcast that process 2 loses.
	e = buildExec(5, 3, func(v [][]View) { v[1][1].Recv = multiset.New[Message]() })
	if e.SatisfiesECFFrom(1) {
		t.Fatal("lost lone broadcast must violate ECF from round 1")
	}
	if !e.SatisfiesECFFrom(3) {
		t.Fatal("ECF from round 3 must hold: the violation is at round 2")
	}
}

func TestDecisionBookkeeping(t *testing.T) {
	e := buildExec(5, 1)
	e.Decisions[1] = Decision{Value: 5, Round: 3}
	e.Decisions[2] = Decision{Value: 5, Round: 4}
	vals := e.DecidedValues()
	if len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("DecidedValues = %v, want [5]", vals)
	}
	if e.LastDecisionRound() != 4 {
		t.Fatalf("LastDecisionRound = %d, want 4", e.LastDecisionRound())
	}
}

func TestExecutionString(t *testing.T) {
	e := buildExec(5, 1)
	e.Decisions[1] = Decision{Value: 5, Round: 1}
	s := e.String()
	if s == "" {
		t.Fatal("String must render something")
	}
}

// TestDenseScheduleMatchesSchedule cross-checks the compiled dense schedule
// against the map-backed one over every phase, round, and crash timing —
// including the Round<=0 edge, where both must mean "crashed from the
// start".
func TestDenseScheduleMatchesSchedule(t *testing.T) {
	procs := []ProcessID{1, 2, 3, 4, 5}
	s := Schedule{
		1: {Round: 0, Time: CrashAfterSend}, // zero-value round: crashed from round 1
		2: {Round: 3, Time: CrashBeforeSend},
		3: {Round: 3, Time: CrashAfterSend},
		5: {Round: -2, Time: CrashBeforeSend}, // negative: also crashed from the start
	}
	var d DenseSchedule
	d.Compile(s, procs)
	for i, id := range procs {
		for r := 1; r <= 6; r++ {
			if got, want := d.CrashedForSend(i, r), s.CrashedForSend(id, r); got != want {
				t.Errorf("p%d r%d send: dense=%v schedule=%v", id, r, got, want)
			}
			if got, want := d.CrashedForDeliver(i, r), s.CrashedForDeliver(id, r); got != want {
				t.Errorf("p%d r%d deliver: dense=%v schedule=%v", id, r, got, want)
			}
			// CrashedDuring(i, r) is by construction CrashedForDeliver at the
			// prefix's last round; keep the two in lockstep.
			if got, want := d.CrashedDuring(i, r), s.CrashedForDeliver(id, r); got != want {
				t.Errorf("p%d prefix %d: CrashedDuring=%v CrashedForDeliver=%v", id, r, got, want)
			}
		}
	}
}
