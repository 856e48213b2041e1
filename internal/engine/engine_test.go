package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/core"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// beacon broadcasts est(value) every round it is active and records what it
// observes. It never decides.
type beacon struct {
	value    model.Value
	obeysCM  bool
	seenCD   []model.CDAdvice
	seenRecv []int
}

func (b *beacon) Message(_ int, adv model.CMAdvice) *model.Message {
	if b.obeysCM && adv != model.CMActive {
		return nil
	}
	return &model.Message{Kind: model.KindEstimate, Value: b.value}
}

func (b *beacon) Deliver(_ int, recv *model.RecvSet, cd model.CDAdvice, _ model.CMAdvice) {
	b.seenCD = append(b.seenCD, cd)
	b.seenRecv = append(b.seenRecv, recv.Len())
}

// decideAfter decides its value at the end of round k and halts one round
// later.
type decideAfter struct {
	value   model.Value
	round   int
	cur     int
	decided bool
}

func (d *decideAfter) Message(int, model.CMAdvice) *model.Message { return nil }

func (d *decideAfter) Deliver(r int, _ *model.RecvSet, _ model.CDAdvice, _ model.CMAdvice) {
	d.cur = r
	if r >= d.round {
		d.decided = true
	}
}

func (d *decideAfter) Decided() (model.Value, bool) { return d.value, d.decided }
func (d *decideAfter) Halted() bool                 { return d.decided && d.cur > d.round }

func TestRunRequiresProcesses(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestLosslessDelivery(t *testing.T) {
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	for i, n := range b1.seenRecv {
		if n != 2 {
			t.Fatalf("round %d: beacon1 received %d, want 2", i+1, n)
		}
	}
	// Honest AC detector, nothing lost: all null advice.
	for i, cd := range b2.seenCD {
		if cd != model.CDNull {
			t.Fatalf("round %d: advice %v, want null", i+1, cd)
		}
	}
	if err := res.Execution.Validate(); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
}

func TestDropAdversarySelfDeliveryOnly(t *testing.T) {
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		Loss:      loss.Drop{},
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range b1.seenRecv {
		if n != 1 {
			t.Fatalf("round %d: received %d, want 1 (own message only)", i+1, n)
		}
	}
	// Honest detector must report the losses.
	for i, cd := range b1.seenCD {
		if cd != model.CDCollision {
			t.Fatalf("round %d: advice %v, want ±", i+1, cd)
		}
	}
	if err := res.Execution.Validate(); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
}

func TestContentionManagerWiring(t *testing.T) {
	b1 := &beacon{value: 1, obeysCM: true}
	b2 := &beacon{value: 2, obeysCM: true}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		CM:        cm.WakeUp{Stable: 1}, // only p1 active
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := res.Execution.TransmissionTrace()
	for i, rt := range tt {
		if rt.Senders != 1 {
			t.Fatalf("round %d: %d senders, want 1 (only the active process)", i+1, rt.Senders)
		}
	}
	for i, n := range b2.seenRecv {
		if n != 1 {
			t.Fatalf("round %d: passive process received %d, want 1", i+1, n)
		}
	}
}

func TestCrashBeforeSendSilencesProcess(t *testing.T) {
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		Crashes:   model.Schedule{1: {Round: 2, Time: model.CrashBeforeSend}},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := res.Execution.TransmissionTrace()
	if tt[0].Senders != 2 || tt[1].Senders != 1 || tt[2].Senders != 1 {
		t.Fatalf("sender counts = %d,%d,%d, want 2,1,1", tt[0].Senders, tt[1].Senders, tt[2].Senders)
	}
	// The crashed process's automaton stops evolving.
	if len(b1.seenRecv) != 1 {
		t.Fatalf("crashed automaton delivered %d times, want 1", len(b1.seenRecv))
	}
	v, _ := res.Execution.View(1, 2)
	if !v.Crashed {
		t.Fatal("crash round view not marked crashed")
	}
	if err := res.Execution.Validate(); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
}

func TestCrashAfterSendBroadcastsOnceMore(t *testing.T) {
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		Crashes:   model.Schedule{1: {Round: 2, Time: model.CrashAfterSend}},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt := res.Execution.TransmissionTrace()
	if tt[1].Senders != 2 {
		t.Fatalf("crash round senders = %d, want 2 (AfterSend broadcasts)", tt[1].Senders)
	}
	if tt[2].Senders != 1 {
		t.Fatalf("post-crash senders = %d, want 1", tt[2].Senders)
	}
	// Deliver must not run in the crash round.
	if len(b1.seenRecv) != 1 {
		t.Fatalf("AfterSend crash delivered %d times, want 1", len(b1.seenRecv))
	}
	if err := res.Execution.Validate(); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
}

func TestDecisionsAndEarlyStop(t *testing.T) {
	d1 := &decideAfter{value: 7, round: 2}
	d2 := &decideAfter{value: 7, round: 4}
	res, err := Run(Config{
		Procs:   map[model.ProcessID]model.Automaton{1: d1, 2: d2},
		Initial: map[model.ProcessID]model.Value{1: 7, 2: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (stop when all decided)", res.Rounds)
	}
	if !res.AllDecided {
		t.Fatal("AllDecided = false")
	}
	if res.Decisions[1].Round != 2 || res.Decisions[2].Round != 4 {
		t.Fatalf("decision rounds = %d,%d, want 2,4", res.Decisions[1].Round, res.Decisions[2].Round)
	}
	if err := CheckAgreement(res); err != nil {
		t.Fatal(err)
	}
	if err := CheckStrongValidity(res); err != nil {
		t.Fatal(err)
	}
	if err := CheckUniformValidity(res); err != nil {
		t.Fatal(err)
	}
	if err := CheckTermination(res, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFullHorizon(t *testing.T) {
	d1 := &decideAfter{value: 7, round: 1}
	res, err := Run(Config{
		Procs:          map[model.ProcessID]model.Automaton{1: d1},
		MaxRounds:      6,
		RunFullHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6 under RunFullHorizon", res.Rounds)
	}
}

func TestHaltedProcessGoesSilent(t *testing.T) {
	// decideAfter halts one round after deciding; from then on it must not
	// broadcast... it never broadcasts, so instead check Deliver stops.
	d1 := &decideAfter{value: 1, round: 2}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: d1, 2: b2},
		MaxRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6 (beacon never decides)", res.Rounds)
	}
	if d1.cur != 3 {
		t.Fatalf("halted automaton last delivered round %d, want 3", d1.cur)
	}
}

func TestMaxRoundsBoundsNonTerminatingRun(t *testing.T) {
	b := &beacon{value: 1}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b},
		MaxRounds: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 9 || res.AllDecided {
		t.Fatalf("rounds=%d allDecided=%v, want 9,false", res.Rounds, res.AllDecided)
	}
}

func TestDetectorClassWiring(t *testing.T) {
	// Zero-complete minimal detector: losing one of two messages is not
	// reported, losing all is.
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	b3 := &beacon{value: 3, obeysCM: true} // silent listener
	adv := loss.Func(func(r int, senders, procs []model.ProcessID) loss.DeliveryFunc {
		return func(rcv, snd model.ProcessID) bool {
			if rcv != 3 {
				return true
			}
			// p3 loses one message in round 1 and all messages in round 2.
			return r == 1 && snd == 1
		}
	})
	res, err := Run(Config{
		Procs: map[model.ProcessID]model.Automaton{1: b1, 2: b2, 3: b3},
		CM:    cm.WakeUp{Stable: 100, Pre: cm.PreNoneActive}, // p3 never broadcasts
		Detector: detector.New(detector.ZeroAC,
			detector.WithBehavior(detector.Minimal{})),
		Loss:      adv,
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b3.seenCD[0] != model.CDNull {
		t.Fatalf("round 1 advice = %v, want null (0-complete ignores partial loss)", b3.seenCD[0])
	}
	if b3.seenCD[1] != model.CDCollision {
		t.Fatalf("round 2 advice = %v, want ± (total loss forced)", b3.seenCD[1])
	}
	if err := detector.CheckExecution(detector.ZeroAC, 1, res.Execution); err != nil {
		t.Fatalf("recorded advice illegal: %v", err)
	}
}

// planCall is one DeliveryFunc query a recordingLoss saw.
type planCall struct {
	r        int
	rcv, snd model.ProcessID
}

// recordingLoss returns a stateful adversary that records every Plan round
// and every (receiver, sender) query, losing the pairs whose IDs sum to a
// multiple of three.
func recordingLoss(plans *[]int, calls *[]planCall) loss.Func {
	return func(r int, _, _ []model.ProcessID) loss.DeliveryFunc {
		*plans = append(*plans, r)
		return func(rcv, snd model.ProcessID) bool {
			*calls = append(*calls, planCall{r, rcv, snd})
			return (rcv+snd)%3 != 0
		}
	}
}

// expectCalls lists the queries of round r in the engine's order:
// receivers ascending, senders ascending, no self-pair.
func expectCalls(r int, rcvs, snds []model.ProcessID) []planCall {
	var out []planCall
	for _, rcv := range rcvs {
		for _, snd := range snds {
			if rcv != snd {
				out = append(out, planCall{r, rcv, snd})
			}
		}
	}
	return out
}

// TestDeliveryFuncCallSequence pins how the engine consults an adversary
// that plans only through a DeliveryFunc: Plan once per round, then one
// query per (receiver, sender) pair in ascending order, never a self-pair,
// never a receiver crashed for the send phase. A CrashAfterSend process is
// still asked about in its crash round. Stateful adversaries (lower-bound
// constructions, exhaustive environments) rely on this order.
func TestDeliveryFuncCallSequence(t *testing.T) {
	var plans []int
	var calls []planCall
	procs := map[model.ProcessID]model.Automaton{
		1: &beacon{value: 1},
		2: &beacon{value: 2},
		3: &beacon{value: 3},
		4: &beacon{value: 4, obeysCM: true}, // silent listener
		5: &beacon{value: 5},
	}
	if _, err := Run(Config{
		Procs: procs,
		CM:    cm.WakeUp{Stable: 100, Pre: cm.PreNoneActive},
		Crashes: model.Schedule{
			2: {Round: 2, Time: model.CrashBeforeSend},
			3: {Round: 2, Time: model.CrashAfterSend},
		},
		Loss:      recordingLoss(&plans, &calls),
		MaxRounds: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !slices.Equal(plans, want) {
		t.Fatalf("Plan rounds = %v, want %v", plans, want)
	}
	var want []planCall
	want = append(want, expectCalls(1, []model.ProcessID{1, 2, 3, 4, 5}, []model.ProcessID{1, 2, 3, 5})...)
	want = append(want, expectCalls(2, []model.ProcessID{1, 3, 4, 5}, []model.ProcessID{1, 3, 5})...)
	want = append(want, expectCalls(3, []model.ProcessID{1, 4, 5}, []model.ProcessID{1, 5})...)
	if !slices.Equal(calls, want) {
		t.Fatalf("DeliveryFunc calls:\n got %v\nwant %v", calls, want)
	}

	// From round 2 on, ECF short-circuits the lone sender's rounds without
	// consulting its base.
	plans, calls = nil, nil
	if _, err := Run(Config{
		Procs: map[model.ProcessID]model.Automaton{
			1: &beacon{value: 1},
			2: &beacon{value: 2, obeysCM: true},
			3: &beacon{value: 3, obeysCM: true},
		},
		CM:        cm.WakeUp{Stable: 100, Pre: cm.PreNoneActive},
		Loss:      loss.ECF{Base: recordingLoss(&plans, &calls), From: 2},
		MaxRounds: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plans, []int{1}) {
		t.Fatalf("ECF base Plan rounds = %v, want [1]", plans)
	}
	if want := expectCalls(1, []model.ProcessID{1, 2, 3}, []model.ProcessID{1}); !slices.Equal(calls, want) {
		t.Fatalf("ECF base calls:\n got %v\nwant %v", calls, want)
	}
}

func TestECFWiring(t *testing.T) {
	b1 := &beacon{value: 1, obeysCM: true}
	b2 := &beacon{value: 2, obeysCM: true}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		CM:        cm.WakeUp{Stable: 1},
		Loss:      loss.ECF{Base: loss.Drop{}, From: 3},
		MaxRounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execution.SatisfiesECFFrom(3) != true {
		t.Fatal("execution must satisfy ECF from round 3")
	}
	if res.Execution.SatisfiesECFFrom(1) {
		t.Fatal("execution must violate ECF from round 1 (Drop base)")
	}
}

// aliveProbe is a contention manager that records, each round, what the
// engine's liveness callback reports for a process inside the table and
// for one outside it.
type aliveProbe struct {
	inside, outside model.ProcessID
	seen            [][2]bool
}

func (a *aliveProbe) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	a.seen = append(a.seen, [2]bool{alive(a.inside), alive(a.outside)})
	return cm.NoCM{}.Advise(r, procs, alive)
}

// TestAliveForCMRejectsUnknownID: an ID outside the process table (say,
// the leader of a LeaderElection{Leader: 99} over processes 1..4) is not
// alive, even while the table's first process is; so is a gap in a
// non-contiguous table.
func TestAliveForCMRejectsUnknownID(t *testing.T) {
	for _, tc := range []struct {
		ids   []model.ProcessID
		probe aliveProbe
	}{
		{[]model.ProcessID{1, 2, 3, 4}, aliveProbe{inside: 1, outside: 99}},
		{[]model.ProcessID{2, 3, 5, 9}, aliveProbe{inside: 5, outside: 4}},
	} {
		procs := map[model.ProcessID]model.Automaton{}
		for _, id := range tc.ids {
			procs[id] = &beacon{value: model.Value(id)}
		}
		if _, err := Run(Config{Procs: procs, CM: &tc.probe, MaxRounds: 2}); err != nil {
			t.Fatal(err)
		}
		if want := [][2]bool{{true, false}, {true, false}}; !slices.Equal(tc.probe.seen, want) {
			t.Fatalf("procs %v: alive(%d), alive(%d) per round = %v, want %v",
				tc.ids, tc.probe.inside, tc.probe.outside, tc.probe.seen, want)
		}
	}
}

type observingCM struct {
	cm.NoCM

	seen []int
}

func (o *observingCM) Observe(_ int, broadcasters int) {
	o.seen = append(o.seen, broadcasters)
}

func TestObserverCalled(t *testing.T) {
	o := &observingCM{}
	b := &beacon{value: 1}
	if _, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b},
		CM:        o,
		MaxRounds: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if len(o.seen) != 3 || o.seen[0] != 1 {
		t.Fatalf("observer saw %v, want [1 1 1]", o.seen)
	}
}

func TestCheckersCatchViolations(t *testing.T) {
	d1 := &decideAfter{value: 1, round: 1}
	d2 := &decideAfter{value: 2, round: 1}
	res, err := Run(Config{
		Procs:   map[model.ProcessID]model.Automaton{1: d1, 2: d2},
		Initial: map[model.ProcessID]model.Value{1: 9, 2: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAgreement(res); err == nil {
		t.Error("agreement violation not caught")
	}
	if err := CheckStrongValidity(res); err == nil {
		t.Error("validity violation not caught")
	}
	if err := CheckUniformValidity(res); err == nil {
		t.Error("uniform validity violation not caught")
	}
}

// TestAllDecidedExcludesMidRunCrash pins the final sweep's liveness rule: a
// process that crashed during the executed prefix is never counted as
// undecided, regardless of how many rounds ran after its crash.
func TestAllDecidedExcludesMidRunCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		time model.CrashTime
	}{
		{"crash before send", model.CrashBeforeSend},
		{"crash after send", model.CrashAfterSend},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d1 := &decideAfter{value: 7, round: 5} // would decide at 5, crashes at 3
			d2 := &decideAfter{value: 7, round: 2}
			res, err := Run(Config{
				Procs:   map[model.ProcessID]model.Automaton{1: d1, 2: d2},
				Crashes: model.Schedule{1: {Round: 3, Time: tc.time}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, decided := res.Decisions[1]; decided {
				t.Fatal("crashed process decided after its crash round")
			}
			if !res.AllDecided {
				t.Fatalf("AllDecided = false after %d rounds: mid-run crashed process counted as undecided", res.Rounds)
			}
		})
	}
}

// TestAllDecidedCountsCrashScheduledBeyondPrefix is the other side of the
// rule: a crash scheduled beyond the executed prefix never happened, so the
// (undecided) process still counts.
func TestAllDecidedCountsCrashScheduledBeyondPrefix(t *testing.T) {
	d1 := &decideAfter{value: 7, round: 2}
	b2 := &beacon{value: 1} // never decides
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: d1, 2: b2},
		Crashes:   model.Schedule{2: {Round: 50, Time: model.CrashBeforeSend}},
		MaxRounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Rounds)
	}
	if res.AllDecided {
		t.Fatal("AllDecided = true although a live (not-yet-crashed) process never decided")
	}
}

// traceConfig builds a fresh, identically-seeded noisy lossy crashy system;
// two calls produce independent but identical systems.
func traceConfig(trace TraceMode) Config {
	procs := make(map[model.ProcessID]model.Automaton, 4)
	initial := make(map[model.ProcessID]model.Value, 4)
	for p := 1; p <= 4; p++ {
		procs[model.ProcessID(p)] = &decideAfter{value: model.Value(p), round: 3 + p}
		initial[model.ProcessID(p)] = model.Value(p)
	}
	procs[5] = &beacon{value: 9}
	return Config{
		Procs:     procs,
		Initial:   initial,
		Detector:  detector.New(detector.ZeroOAC, detector.WithRace(4)),
		Loss:      loss.NewProbabilistic(0.4, 17),
		Crashes:   model.Schedule{2: {Round: 4, Time: model.CrashAfterSend}},
		MaxRounds: 12,
		Trace:     trace,
	}
}

// TestTraceDecisionsOnlyMatchesFull requires decisions-only runs to produce
// exactly the decisions, round counts, and AllDecided verdicts of full
// traces, while recording no per-round views — on the stub system and on
// every real-algorithm system, whose full traces must also satisfy the
// consensus properties and mark every scheduled crash.
func TestTraceDecisionsOnlyMatchesFull(t *testing.T) {
	requireDecisionsOnlyMatchesFull(t, traceConfig)
	for _, sys := range coreSystems {
		t.Run(sys.name, func(t *testing.T) {
			full := requireDecisionsOnlyMatchesFull(t, func(trace TraceMode) Config {
				cfg := sys.build(false)
				cfg.Trace = trace
				return cfg
			})
			requireConsensus(t, full, sys.build(false).Crashes)
		})
	}
}

// requireDecisionsOnlyMatchesFull runs cfgAt in both trace modes, checks
// that they agree, and returns the full-trace result.
func requireDecisionsOnlyMatchesFull(t *testing.T, cfgAt func(TraceMode) Config) *Result {
	t.Helper()
	full, err := Run(cfgAt(TraceFull))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Run(cfgAt(TraceDecisionsOnly))
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds != dec.Rounds {
		t.Fatalf("rounds differ: full %d, decisions-only %d", full.Rounds, dec.Rounds)
	}
	if full.AllDecided != dec.AllDecided {
		t.Fatalf("AllDecided differ: full %v, decisions-only %v", full.AllDecided, dec.AllDecided)
	}
	if len(full.Decisions) != len(dec.Decisions) {
		t.Fatalf("decision counts differ: %d vs %d", len(full.Decisions), len(dec.Decisions))
	}
	for id, d := range full.Decisions {
		if dec.Decisions[id] != d {
			t.Fatalf("process %d decisions differ: full %v, decisions-only %v", id, d, dec.Decisions[id])
		}
	}
	if full.Execution.NumRounds() != full.Rounds {
		t.Fatalf("full trace recorded %d rounds, want %d", full.Execution.NumRounds(), full.Rounds)
	}
	if dec.Execution.NumRounds() != 0 {
		t.Fatalf("decisions-only trace recorded %d rounds, want 0", dec.Execution.NumRounds())
	}
	if err := full.Execution.Validate(); err != nil {
		t.Fatalf("full execution invalid: %v", err)
	}
	return full
}

// requireConsensus checks a full-trace run of real consensus automata:
// every live process decided, agreement, strong validity, and termination
// hold, and each process scheduled to crash within the executed prefix
// shows a crashed view the round after its crash round.
func requireConsensus(t *testing.T, res *Result, crashes model.Schedule) {
	t.Helper()
	if !res.AllDecided {
		t.Fatal("not all processes decided")
	}
	for _, err := range []error{CheckAgreement(res), CheckStrongValidity(res), CheckTermination(res, crashes)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for id, c := range crashes {
		if c.Round >= res.Rounds {
			continue
		}
		if v, ok := res.Execution.View(id, c.Round+1); !ok || !v.Crashed {
			t.Fatalf("process %d crashed in round %d but its round-%d view is not marked crashed", id, c.Round, c.Round+1)
		}
	}
}

// TestTraceDecisionsOnlyDeterministicAcrossRuns runs back-to-back
// decisions-only executions: the second reuses pooled receive sets from
// the first, and the recycled state must not change any result.
func TestTraceDecisionsOnlyDeterministicAcrossRuns(t *testing.T) {
	first, err := Run(traceConfig(TraceDecisionsOnly))
	if err != nil {
		t.Fatal(err)
	}
	// Second run re-uses pooled receive sets from the first; results must
	// be unaffected by the recycled state.
	second, err := Run(traceConfig(TraceDecisionsOnly))
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds != second.Rounds || len(first.Decisions) != len(second.Decisions) {
		t.Fatalf("pooled reuse changed results: rounds %d vs %d", first.Rounds, second.Rounds)
	}
	for id, d := range first.Decisions {
		if second.Decisions[id] != d {
			t.Fatalf("process %d: pooled reuse changed decision %v -> %v", id, d, second.Decisions[id])
		}
	}
}

// TestCrashRoundZeroMeansCrashedFromStart pins the map schedule's edge
// semantics on the dense hot path: Crash{Round: 0} (an easy zero-value
// mistake) crashes the process from round 1, exactly as
// model.Schedule.CrashedForSend always reported for it.
func TestCrashRoundZeroMeansCrashedFromStart(t *testing.T) {
	b1 := &beacon{value: 1}
	b2 := &beacon{value: 2}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b1, 2: b2},
		Crashes:   model.Schedule{1: {Round: 0, Time: model.CrashAfterSend}},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.seenRecv) != 0 {
		t.Fatalf("Round-0-crashed automaton delivered %d times, want 0", len(b1.seenRecv))
	}
	tt := res.Execution.TransmissionTrace()
	for i, rt := range tt {
		if rt.Senders != 1 {
			t.Fatalf("round %d: %d senders, want 1 (p1 crashed from the start)", i+1, rt.Senders)
		}
	}
	v, _ := res.Execution.View(1, 1)
	if !v.Crashed {
		t.Fatal("round-1 view of Round-0-crashed process not marked crashed")
	}
}

// TestDecisionsOnlySteadyStateAllocations pins the headline property: with
// silent automata and a lossless channel, decisions-only rounds allocate
// nothing — the allocation count of a run is independent of its length.
func TestDecisionsOnlySteadyStateAllocations(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			d1 := &decideAfter{value: 1, round: 1}
			d2 := &decideAfter{value: 1, round: 1}
			if _, err := Run(Config{
				Procs:          map[model.ProcessID]model.Automaton{1: d1, 2: d2},
				MaxRounds:      rounds,
				RunFullHorizon: true,
				Trace:          TraceDecisionsOnly,
			}); err != nil {
				t.Error(err)
			}
		}
	}
	run(8)() // warm the receive-set pool
	short := testing.AllocsPerRun(20, run(8))
	long := testing.AllocsPerRun(20, run(520))
	if perRound := (long - short) / 512; perRound > 0.05 {
		t.Fatalf("decisions-only steady state allocates %.2f objects/round (short run %.0f, long run %.0f allocs), want 0",
			perRound, short, long)
	}
}

// TestRunFixedAllocations audits Run's fixed cost per run: set-up, the
// round step's run state and the finish. A 2-process decisions-only run
// (the TestDecisionsOnlySteadyStateAllocations system, automata and
// process map included) allocates at most 25 objects: round state lives
// in runState fields, so none of it moves to the heap on its own.
func TestRunFixedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts, so receive sets are reallocated")
	}
	run := func() {
		d1 := &decideAfter{value: 1, round: 1}
		d2 := &decideAfter{value: 1, round: 1}
		if _, err := Run(Config{
			Procs:          map[model.ProcessID]model.Automaton{1: d1, 2: d2},
			MaxRounds:      8,
			RunFullHorizon: true,
			Trace:          TraceDecisionsOnly,
		}); err != nil {
			t.Error(err)
		}
	}
	run() // warm the receive-set pool
	if allocs := testing.AllocsPerRun(20, run); allocs > 25 {
		t.Fatalf("a 2-process decisions-only run allocates %.0f objects, want at most 25", allocs)
	}
}

func TestCheckTerminationCatchesUndecided(t *testing.T) {
	b := &beacon{value: 1}
	res, err := Run(Config{
		Procs:     map[model.ProcessID]model.Automaton{1: b},
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTermination(res, nil); err == nil {
		t.Error("non-termination not caught")
	}
	// A crashed process is exempt.
	if err := CheckTermination(res, model.Schedule{1: {Round: 1}}); err != nil {
		t.Errorf("crashed process wrongly required to decide: %v", err)
	}
}

// TestTraceFullSteadyStateAllocations mirrors the decisions-only assertion
// for the columnar arena: with silent automata and a lossless channel, a
// full-trace round appends to preallocated columns and allocates nothing —
// the allocation count of a run is independent of its length.
func TestTraceFullSteadyStateAllocations(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			d1 := &decideAfter{value: 1, round: 1}
			d2 := &decideAfter{value: 1, round: 1}
			if _, err := Run(Config{
				Procs:          map[model.ProcessID]model.Automaton{1: d1, 2: d2},
				MaxRounds:      rounds,
				RunFullHorizon: true,
				Trace:          TraceFull,
			}); err != nil {
				t.Error(err)
			}
		}
	}
	run(8)() // warm the receive-set pool
	short := testing.AllocsPerRun(20, run(8))
	long := testing.AllocsPerRun(20, run(520))
	if perRound := (long - short) / 512; perRound > 0.05 {
		t.Fatalf("full-trace steady state allocates %.2f objects/round (short run %.0f, long run %.0f allocs), want 0",
			perRound, short, long)
	}
}

// chatter broadcasts the same estimate every round and never halts. Its
// message lives in the automaton, so it allocates nothing per round.
type chatter struct{ msg model.Message }

func (c *chatter) Message(int, model.CMAdvice) *model.Message                  { return &c.msg }
func (c *chatter) Deliver(int, *model.RecvSet, model.CDAdvice, model.CMAdvice) {}

// TestWakeUpLossySteadyStateAllocations extends the steady-state audit to
// the sweep path that the default-NoCM audits miss: a wake-up service that
// takes its pre-stabilization branch every round, and a v1 probabilistic
// adversary that draws every round. The allocation count of a run must not
// grow with its length.
func TestWakeUpLossySteadyStateAllocations(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			procs := make(map[model.ProcessID]model.Automaton, 3)
			for p := model.ProcessID(1); p <= 3; p++ {
				procs[p] = &chatter{msg: model.Message{Kind: model.KindEstimate, Value: model.Value(p)}}
			}
			if _, err := Run(Config{
				Procs:          procs,
				CM:             cm.WakeUp{Stable: rounds + 1},
				Loss:           loss.NewProbabilistic(0.3, 7),
				MaxRounds:      rounds,
				RunFullHorizon: true,
				Trace:          TraceDecisionsOnly,
			}); err != nil {
				t.Error(err)
			}
		}
	}
	run(8)() // warm the receive-set pool
	short := testing.AllocsPerRun(20, run(8))
	long := testing.AllocsPerRun(20, run(520))
	if perRound := (long - short) / 512; perRound > 0.05 {
		t.Fatalf("wake-up + lossy steady state allocates %.2f objects/round (short run %.0f, long run %.0f allocs), want 0",
			perRound, short, long)
	}
}

// TestTraceFullWithinTwiceDecisionsOnlyAllocs pins the headline arena
// property end to end: recording a full execution costs at most 2x the
// allocations of a decisions-only run of the same noisy, lossy, crashy
// configuration (the seed full-trace path cost ~90x).
func TestTraceFullWithinTwiceDecisionsOnlyAllocs(t *testing.T) {
	measure := func(mode TraceMode) float64 {
		run := func() {
			if _, err := Run(traceConfig(mode)); err != nil {
				t.Error(err)
			}
		}
		run() // warm pools
		return testing.AllocsPerRun(20, run)
	}
	dec := measure(TraceDecisionsOnly)
	full := measure(TraceFull)
	if full > 2*dec {
		t.Fatalf("full trace costs %.0f allocs/run, decisions-only %.0f: ratio %.2f exceeds 2x",
			full, dec, full/dec)
	}
}

// TestReleaseClosesTraceAllocations pins the arena release-for-reuse API:
// a loop that runs at TraceFull, digests the execution (validation +
// decision digest), and hands the arena back via Execution.Release performs
// ZERO steady-state allocations for the trace itself — the same per-run
// count as a decisions-only loop, which records nothing. This is the
// contract the replay verifier and the validation pipelines rely on.
func TestReleaseClosesTraceAllocations(t *testing.T) {
	measure := func(trace TraceMode, release bool) float64 {
		run := func() {
			res, err := Run(traceConfig(trace))
			if err != nil {
				t.Error(err)
				return
			}
			if trace == TraceFull {
				if err := res.Execution.Validate(); err != nil {
					t.Error(err)
				}
			}
			_ = res.Execution.DecidedValues()
			if release {
				res.Execution.Release()
			}
		}
		run() // warm the receive-set and arena pools
		run()
		return testing.AllocsPerRun(20, run)
	}
	dec := measure(TraceDecisionsOnly, false)
	full := measure(TraceFull, true)
	// DecidedValues allocates its result map either way; the only allowed
	// full-trace overhead is Validate's reusable scratch multiset (a handful
	// of fixed allocations, not proportional to the trace). The race
	// detector makes sync.Pool drop a share of puts on purpose, so there the
	// count measures the detector rather than the arena recycling.
	if !raceEnabled && full > dec+6 {
		t.Fatalf("full trace with Release costs %.0f allocs/run vs %.0f decisions-only: arena not recycled", full, dec)
	}
	withoutRelease := measure(TraceFull, false)
	if withoutRelease <= full {
		t.Logf("note: full trace without Release measured %.0f allocs/run vs %.0f with (GC may have recycled)", withoutRelease, full)
	}
}

// parallelConfig builds a concurrency-safe system (honest detector,
// probabilistic loss under ECF, crashes with both timings) whose delivery
// loop is eligible for sharding.
func parallelConfig(n int, trace TraceMode, workers int) Config {
	procs := make(map[model.ProcessID]model.Automaton, n)
	initial := make(map[model.ProcessID]model.Value, n)
	for p := 1; p <= n; p++ {
		procs[model.ProcessID(p)] = &decideAfter{value: model.Value(p%3 + 1), round: 6 + p%5}
		initial[model.ProcessID(p)] = model.Value(p%3 + 1)
	}
	procs[model.ProcessID(n+1)] = &beacon{value: 9}
	return Config{
		Procs:    procs,
		Initial:  initial,
		Detector: detector.New(detector.ZeroOAC, detector.WithRace(5)),
		Loss:     loss.ECF{Base: loss.NewProbabilistic(0.35, 41), From: 9},
		Crashes: model.Schedule{
			2: {Round: 4, Time: model.CrashBeforeSend},
			5: {Round: 7, Time: model.CrashAfterSend},
		},
		MaxRounds:        40,
		RunFullHorizon:   true,
		Trace:            trace,
		DeliveryWorkers:  workers,
		DeliveryMinProcs: 1, // force the parallel path even for small n
	}
}

// coreSystems are the real-algorithm inputs of the equivalence tables,
// next to their stub automata: Alg 1/2/3 with noisy detectors, capture
// loss, and crash schedules. build returns a fresh, identically seeded
// system on every call (automata, detectors, and adversaries are stateful)
// and draws the loss from seed schedule v2 when v2 is set. The systems
// with a Noisy detector are order-dependent, so asking them to shard must
// fall back to the sequential loop with identical results; the others
// really shard.
var coreSystems = []struct {
	name  string
	build func(v2 bool) Config
}{
	{"alg1 noisy", func(v2 bool) Config { // noisy: random contention advice before CST
		const seed = 11
		return Config{
			Procs:    map[model.ProcessID]model.Automaton{1: core.NewAlg1(7), 2: core.NewAlg1(3), 3: core.NewAlg1(5)},
			Initial:  map[model.ProcessID]model.Value{1: 7, 2: 3, 3: 5},
			Detector: detector.New(detector.MajOAC, detector.WithRace(6)),
			CM:       cm.WakeUp{Stable: 6, Pre: cm.PreRandom(seed, 0.5)},
			Loss:     loss.ECF{Base: probLoss(0.3, seed, v2), From: 6},
		}
	}},
	{"alg2 noisy", func(v2 bool) Config {
		const seed = 42
		d := valueset.MustDomain(64)
		return Config{
			Procs: map[model.ProcessID]model.Automaton{
				1: core.NewAlg2(d, 10), 2: core.NewAlg2(d, 50), 3: core.NewAlg2(d, 31), 4: core.NewAlg2(d, 10),
			},
			Initial: map[model.ProcessID]model.Value{1: 10, 2: 50, 3: 31, 4: 10},
			Detector: detector.New(detector.ZeroOAC, detector.WithRace(9),
				detector.WithBehavior(detector.Noisy{P: 0.3, Rng: rand.New(rand.NewSource(seed))})),
			CM:        cm.WakeUp{Stable: 9},
			Loss:      loss.ECF{Base: probLoss(0.4, seed, v2), From: 9},
			MaxRounds: 300,
		}
	}},
	{"alg3 capture with crash", func(v2 bool) Config {
		const seed = 7
		d := valueset.MustDomain(128)
		capture := loss.NewCapture(0.4, 0.2, seed)
		if v2 {
			capture = loss.NewCaptureV2(0.4, 0.2, seed)
		}
		return Config{
			Procs:     map[model.ProcessID]model.Automaton{1: core.NewAlg3(d, 3), 2: core.NewAlg3(d, 99), 3: core.NewAlg3(d, 64)},
			Initial:   map[model.ProcessID]model.Value{1: 3, 2: 99, 3: 64},
			Detector:  detector.New(detector.ZeroAC),
			Loss:      capture,
			Crashes:   model.Schedule{1: {Round: 9, Time: model.CrashAfterSend}},
			MaxRounds: 500,
		}
	}},
	{"alg2 multi-crash", func(v2 bool) Config {
		const seed = 23
		cfg := alg2CrashConfig(5, seed, v2)
		cfg.Detector = detector.New(detector.ZeroOAC, detector.WithRace(7),
			detector.WithBehavior(detector.Noisy{P: 0.25, Rng: rand.New(rand.NewSource(seed))}))
		return cfg
	}},
	{"alg2 honest multi-crash", func(v2 bool) Config { return alg2CrashConfig(6, 23, v2) }},
}

// alg2CrashConfig is n Alg 2 processes under an honest detector and lossy
// ECF channel, with crashes of both timings around stabilization — the
// nastiest regime for crash bookkeeping.
func alg2CrashConfig(n int, seed int64, v2 bool) Config {
	d := valueset.MustDomain(64)
	procs := make(map[model.ProcessID]model.Automaton, n)
	initial := make(map[model.ProcessID]model.Value, n)
	for p := 1; p <= n; p++ {
		v := model.Value(p * 11 % 64)
		procs[model.ProcessID(p)] = core.NewAlg2(d, v)
		initial[model.ProcessID(p)] = v
	}
	return Config{
		Procs:    procs,
		Initial:  initial,
		Detector: detector.New(detector.ZeroOAC, detector.WithRace(7)),
		CM:       cm.WakeUp{Stable: 7},
		Loss:     loss.ECF{Base: probLoss(0.3, seed, v2), From: 7},
		Crashes: model.Schedule{
			2: {Round: 3, Time: model.CrashBeforeSend},
			4: {Round: 8, Time: model.CrashAfterSend},
		},
		MaxRounds: 300,
	}
}

// probLoss is the probabilistic channel under seed schedule v1 or v2.
func probLoss(p float64, seed int64, v2 bool) loss.Adversary {
	if v2 {
		return loss.NewProbabilisticV2(p, seed)
	}
	return loss.NewProbabilistic(p, seed)
}

// shardedAt adapts a core system to requireShardedMatchesSequential,
// forcing the parallel path on however small the system is.
func shardedAt(build func(v2 bool) Config, v2 bool) func(TraceMode, int) Config {
	return func(trace TraceMode, workers int) Config {
		cfg := build(v2)
		cfg.Trace = trace
		cfg.DeliveryWorkers = workers
		cfg.DeliveryMinProcs = 1
		return cfg
	}
}

// requireShardedMatchesSequential runs cfgAt sequentially and at each
// worker count, in both trace modes (one subtest each), and requires the
// same rounds, AllDecided, and decisions everywhere; full traces must be
// indistinguishable to every process and export byte-identically, and
// decisions-only runs must record no views.
func requireShardedMatchesSequential(t *testing.T, cfgAt func(TraceMode, int) Config, workerCounts []int) {
	t.Helper()
	for _, trace := range []TraceMode{TraceFull, TraceDecisionsOnly} {
		name := map[TraceMode]string{TraceFull: "full", TraceDecisionsOnly: "decisions"}[trace]
		t.Run(name, func(t *testing.T) {
			seq, err := Run(cfgAt(trace, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				par, err := Run(cfgAt(trace, workers))
				if err != nil {
					t.Fatal(err)
				}
				if par.Rounds != seq.Rounds || par.AllDecided != seq.AllDecided {
					t.Fatalf("workers=%d: rounds/AllDecided = %d/%v, sequential %d/%v",
						workers, par.Rounds, par.AllDecided, seq.Rounds, seq.AllDecided)
				}
				if len(par.Decisions) != len(seq.Decisions) {
					t.Fatalf("workers=%d: %d decisions, sequential %d", workers, len(par.Decisions), len(seq.Decisions))
				}
				for id, d := range seq.Decisions {
					if par.Decisions[id] != d {
						t.Fatalf("workers=%d: process %d decided %v, sequential %v", workers, id, par.Decisions[id], d)
					}
				}
				if trace != TraceFull {
					if par.Execution.NumRounds() != 0 {
						t.Fatalf("workers=%d: decisions-only run recorded %d rounds", workers, par.Execution.NumRounds())
					}
					continue
				}
				for _, id := range seq.Execution.Procs {
					if !seq.Execution.IndistinguishableTo(par.Execution, id, seq.Rounds) {
						t.Fatalf("workers=%d: process %d distinguishes parallel from sequential trace", workers, id)
					}
				}
				var sb, pb strings.Builder
				if err := seq.Execution.WriteJSON(&sb); err != nil {
					t.Fatal(err)
				}
				if err := par.Execution.WriteJSON(&pb); err != nil {
					t.Fatal(err)
				}
				if sb.String() != pb.String() {
					t.Fatalf("workers=%d: parallel trace export differs from sequential", workers)
				}
			}
		})
	}
}

// TestParallelDeliveryMatchesSequential requires the sharded delivery loop
// to produce byte-identical results to the sequential path at every worker
// count, in both trace modes, under crashes and message loss — on the stub
// system and on every real-algorithm system.
func TestParallelDeliveryMatchesSequential(t *testing.T) {
	workerCounts := []int{2, 3, 8, 32}
	requireShardedMatchesSequential(t, func(trace TraceMode, workers int) Config {
		return parallelConfig(9, trace, workers)
	}, workerCounts)
	for _, sys := range coreSystems {
		t.Run(sys.name, func(t *testing.T) {
			requireShardedMatchesSequential(t, shardedAt(sys.build, false), workerCounts)
		})
	}
}

// pinCalibration overrides the host calibration for the test's duration so
// threshold assertions do not depend on the machine running them.
func pinCalibration(t *testing.T, c Calibration) {
	t.Helper()
	calibrationOverride.Store(&c)
	t.Cleanup(func() { calibrationOverride.Store(nil) })
}

// TestScheduleV2ParallelMatchesSequential is the v2 half of the
// equivalence suite: under the counter-based seed schedule the loss plan
// and message generation shard across the pool alongside delivery, and the
// result must still be byte-identical to the v2 sequential path at every
// worker count — decisions AND full traces, with crashes in the schedule,
// on the stub system and on every real-algorithm system.
func TestScheduleV2ParallelMatchesSequential(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	requireShardedMatchesSequential(t, func(trace TraceMode, workers int) Config {
		cfg := parallelConfig(9, trace, workers)
		cfg.Loss = loss.ECF{Base: loss.NewProbabilisticV2(0.35, 41), From: 9}
		return cfg
	}, workerCounts)
	for _, sys := range coreSystems {
		t.Run(sys.name, func(t *testing.T) {
			requireShardedMatchesSequential(t, shardedAt(sys.build, true), workerCounts)
		})
	}
}

// TestScheduleV2DiffersFromV1 guards against the schedules silently
// aliasing: with the same seed and configuration, v1 and v2 draw different
// loss patterns, so the recorded full traces (which capture every receive
// set) must differ.
func TestScheduleV2DiffersFromV1(t *testing.T) {
	render := func(adv loss.Adversary) string {
		cfg := parallelConfig(9, TraceFull, 1)
		cfg.Loss = loss.ECF{Base: adv, From: 9}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Execution.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render(loss.NewProbabilistic(0.35, 41)) == render(loss.NewProbabilisticV2(0.35, 41)) {
		t.Fatal("v1 and v2 schedules produced byte-identical full traces under the same seed")
	}
}

// TestResolveDeliveryWorkers pins the auto-off rules: order-dependent
// detectors and adversaries, small systems, and workers<=1 all fall back to
// the sequential path; eligible configurations are capped at n. The host
// calibration is pinned to the historical defaults so the thresholds under
// test are exact.
func TestResolveDeliveryWorkers(t *testing.T) {
	pinCalibration(t, Calibration{Workers: 4, MinProcs: DefaultDeliveryMinProcs})
	honest := detector.New(detector.ZeroOAC)
	noisy := detector.New(detector.ZeroOAC, detector.WithBehavior(detector.Noisy{P: 0.5}))
	safeLoss := loss.NewProbabilistic(0.3, 1)
	bespoke := loss.Func(func(int, []model.ProcessID, []model.ProcessID) loss.DeliveryFunc { return nil })
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		det  *detector.Detector
		adv  loss.Adversary
		want int
	}{
		{"off by default", Config{}, 256, honest, safeLoss, 1},
		{"opt-in large n", Config{DeliveryWorkers: 4}, 256, honest, safeLoss, 4},
		{"below threshold", Config{DeliveryWorkers: 4}, 63, honest, safeLoss, 1},
		{"threshold override", Config{DeliveryWorkers: 4, DeliveryMinProcs: 2}, 8, honest, safeLoss, 4},
		{"capped at n", Config{DeliveryWorkers: 512, DeliveryMinProcs: 2}, 100, honest, safeLoss, 100},
		{"noisy detector falls back", Config{DeliveryWorkers: 4}, 256, noisy, safeLoss, 1},
		{"bespoke loss falls back", Config{DeliveryWorkers: 4}, 256, honest, bespoke, 1},
		{"ecf over safe base", Config{DeliveryWorkers: 4}, 256, honest, loss.ECF{Base: safeLoss, From: 3}, 4},
		{"ecf over bespoke base", Config{DeliveryWorkers: 4}, 256, honest, loss.ECF{Base: bespoke, From: 3}, 1},
		{"auto resolves calibrated workers", Config{DeliveryWorkers: DeliveryWorkersAuto}, 256, honest, safeLoss, 4},
		{"auto below calibrated threshold", Config{DeliveryWorkers: DeliveryWorkersAuto}, 63, honest, safeLoss, 1},
	} {
		if got := resolveDeliveryWorkers(&tc.cfg, tc.n, tc.det, tc.adv); got != tc.want {
			t.Errorf("%s: workers = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCalibrateProfile sanity-checks the measured host profile: a
// single-thread host calibrates to the sequential path with the historical
// threshold; a multi-core host reports a bounded worker count and a
// threshold inside the clamp range with positive measurements behind it.
func TestCalibrateProfile(t *testing.T) {
	c := Calibrate()
	if c.Workers < 1 || c.Workers > 8 {
		t.Fatalf("calibrated Workers = %d, want 1..8", c.Workers)
	}
	if c.Workers == 1 {
		if c.MinProcs != DefaultDeliveryMinProcs {
			t.Fatalf("sequential host calibrated MinProcs = %d, want %d", c.MinProcs, DefaultDeliveryMinProcs)
		}
		return
	}
	if c.MinProcs < 16 || c.MinProcs > 4096 {
		t.Fatalf("calibrated MinProcs = %d, want within [16, 4096]", c.MinProcs)
	}
	if c.BarrierNs <= 0 || c.StepNs <= 0 {
		t.Fatalf("calibration measurements BarrierNs=%v StepNs=%v, want both positive", c.BarrierNs, c.StepNs)
	}
	if again := Calibrate(); again != c {
		t.Fatalf("Calibrate not cached: %+v then %+v", c, again)
	}
}
