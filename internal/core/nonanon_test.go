package core

import (
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multiset"
	"adhocconsensus/internal/valueset"
)

// nonAnonProcs builds n §7.3 processes with distinct IDs and the given
// values.
func nonAnonProcs(n int, idD, valD valueset.Domain, ids, values []model.Value) (map[model.ProcessID]model.Automaton, map[model.ProcessID]model.Value) {
	procs := make(map[model.ProcessID]model.Automaton, n)
	initial := make(map[model.ProcessID]model.Value, n)
	for i := 0; i < n; i++ {
		procs[model.ProcessID(i+1)] = NewNonAnon(idD, valD, ids[i], values[i%len(values)])
		initial[model.ProcessID(i+1)] = values[i%len(values)]
	}
	return procs, initial
}

// TestNonAnonPlainModeEqualsAlg2 checks the |V| <= |I| regime is literally
// Algorithm 2: identical decisions and rounds.
func TestNonAnonPlainModeEqualsAlg2(t *testing.T) {
	idD := valueset.MustDomain(1 << 48) // MAC-like ID space
	valD := valueset.MustDomain(64)
	ids := []model.Value{100, 200, 300, 400}
	values := []model.Value{10, 50, 30, 10}

	e := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1}
	procs, initial := nonAnonProcs(4, idD, valD, ids, values)
	res := run(t, e, procs, initial)
	mustAgreeAndBeValid(t, res)

	e2 := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1}
	procs2, initial2 := alg2Procs(4, valD, values...)
	res2 := run(t, e2, procs2, initial2)

	if res.Execution.LastDecisionRound() != res2.Execution.LastDecisionRound() {
		t.Fatalf("plain mode rounds %d != Alg2 rounds %d",
			res.Execution.LastDecisionRound(), res2.Execution.LastDecisionRound())
	}
	if res.Execution.DecidedValues()[0] != res2.Execution.DecidedValues()[0] {
		t.Fatal("plain mode decided differently from Alg2")
	}
}

// TestNonAnonSmallIDSpaceBeatsAlg2 is experiment T5's headline: with
// |I| = 16 and |V| = 2^32, electing a leader over I and relaying one value
// decides far sooner than Algorithm 2's 2(⌈lg|V|⌉+1) ≈ 66 rounds.
func TestNonAnonSmallIDSpaceBeatsAlg2(t *testing.T) {
	idD := valueset.MustDomain(16)
	valD := valueset.MustDomain(1 << 32)
	ids := []model.Value{3, 7, 11, 15}
	values := []model.Value{1 << 20, 1 << 25, 99, 12345}

	e := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1, maxR: 400}
	procs, initial := nonAnonProcs(4, idD, valD, ids, values)
	res := run(t, e, procs, initial)
	mustAgreeAndBeValid(t, res)
	// Leader election: one Alg2 cycle over IDs = (4+2) phase-1 rounds =
	// 18 global rounds; dissemination adds one triple. Anything under
	// Alg2-on-V's 66 rounds demonstrates the min{lg|V|, lg|I|} win; leave
	// generous slack.
	alg2Rounds := 2 * (valD.BitWidth() + 1)
	mustTerminateBy(t, res, nil, alg2Rounds-10)
}

// TestNonAnonDecidesLeadersValue: the decided value is the initial value of
// the elected leader (strong validity is checked too; this pins the
// mechanism).
func TestNonAnonDecidesLeadersValue(t *testing.T) {
	idD := valueset.MustDomain(8)
	valD := valueset.MustDomain(1 << 20)
	ids := []model.Value{5, 2, 7}
	values := []model.Value{111, 222, 333}
	e := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1, maxR: 400}
	procs, initial := nonAnonProcs(3, idD, valD, ids, values)
	res := run(t, e, procs, initial)
	mustAgreeAndBeValid(t, res)
	decided := res.Execution.DecidedValues()[0]
	found := false
	for _, v := range values {
		if v == decided {
			found = true
		}
	}
	if !found {
		t.Fatalf("decided %d is nobody's initial value", decided)
	}
}

// TestNonAnonLeaderCrashRecovery crashes the elected leader before it can
// fully disseminate: the silent phase-2 detection must re-open the election
// and a new leader must finish the job, preserving agreement and validity.
func TestNonAnonLeaderCrashRecovery(t *testing.T) {
	idD := valueset.MustDomain(8)
	valD := valueset.MustDomain(1 << 16)
	ids := []model.Value{1, 4, 6}
	values := []model.Value{1000, 2000, 3000}
	// With WakeUp{Stable:1} process 1 is the lone active contender, so the
	// first election elects ID 1 (its owner, process 1). One election cycle
	// over the 3-bit ID space = 5 phase-1 rounds; phase-1 rounds are global
	// rounds 1,4,7,10,13, so the election lands at round 13 and the first
	// phase-2 broadcast would be round 14. Crash the leader first.
	crashes := model.Schedule{1: {Round: 14, Time: model.CrashBeforeSend}}
	e := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1, crashes: crashes, maxR: 600}
	procs, initial := nonAnonProcs(3, idD, valD, ids, values)
	res := run(t, e, procs, initial)
	mustAgreeAndBeValid(t, res)
	if err := res.Execution.Validate(); err != nil {
		t.Fatal(err)
	}
	// Survivors must decide a SURVIVOR-initiated value or the dead
	// leader's (if it had leaked, which it cannot have here: it never
	// broadcast).
	decided := res.Execution.DecidedValues()[0]
	if decided != 2000 && decided != 3000 {
		t.Fatalf("decided %d, want a surviving process's value", decided)
	}
}

// TestNonAnonLeaderCrashMidDissemination crashes the leader AFTER one
// phase-2 broadcast that only some processes may have received; the safety
// refinement (decide only after a clean phase-3, adopt on receipt) must
// keep agreement across re-election.
func TestNonAnonLeaderCrashMidDissemination(t *testing.T) {
	idD := valueset.MustDomain(8)
	valD := valueset.MustDomain(1 << 16)
	ids := []model.Value{1, 4, 6}
	values := []model.Value{1000, 2000, 3000}
	// Leader (process 1) broadcasts its value at round 14 (see above), but
	// the partition adversary delivers it to process 2 only; the leader
	// crashes right after sending.
	crashes := model.Schedule{1: {Round: 14, Time: model.CrashAfterSend}}
	partial := loss.Func(func(r int, senders, procs []model.ProcessID) loss.DeliveryFunc {
		return func(rcv, snd model.ProcessID) bool {
			if r == 14 && snd == 1 {
				return rcv == 2 // process 3 loses the leader value
			}
			return true
		}
	})
	e := env{
		class:    detector.ZeroOAC,
		cmStable: 1,
		ecfFrom:  15,
		base:     partial,
		crashes:  crashes,
		maxR:     600,
	}
	procs, initial := nonAnonProcs(3, idD, valD, ids, values)
	res := run(t, e, procs, initial)
	mustAgreeAndBeValid(t, res)
	// Process 2 adopted 1000; any later leader must disseminate 1000, so
	// agreement forces everyone to 1000.
	if decided := res.Execution.DecidedValues()[0]; decided != 1000 {
		t.Fatalf("decided %d, want the adopted value 1000", decided)
	}
}

// TestNonAnonNoisyPrefix runs mode B under pre-CST noise and loss.
func TestNonAnonNoisyPrefix(t *testing.T) {
	idD := valueset.MustDomain(16)
	valD := valueset.MustDomain(1 << 24)
	ids := []model.Value{2, 5, 9, 14}
	values := []model.Value{7, 8, 9, 10}
	for _, seed := range []int64{1, 5, 12} {
		const cst = 20
		e := env{
			class:    detector.ZeroOAC,
			behavior: detector.Noisy{P: 0.25, Rng: seededRng(seed)},
			race:     cst,
			cmStable: cst,
			ecfFrom:  cst,
			base:     loss.NewProbabilistic(0.3, seed),
			maxR:     600,
		}
		procs, initial := nonAnonProcs(4, idD, valD, ids, values)
		res := run(t, e, procs, initial)
		mustAgreeAndBeValid(t, res)
		// Election: within 2 cycles of 6 phase-1 rounds each after CST →
		// ≤ 36 global rounds; dissemination ≤ 2 triples. Generous bound.
		mustTerminateBy(t, res, nil, cst+2*3*(idD.BitWidth()+2)+9)
	}
}

// TestNonAnonSafeUnderAdversarialEnvironment: safety only, never-stabilizing
// adversary.
func TestNonAnonSafeUnderAdversarialEnvironment(t *testing.T) {
	idD := valueset.MustDomain(8)
	valD := valueset.MustDomain(1 << 16)
	ids := []model.Value{0, 3, 5, 7}
	values := []model.Value{11, 22, 33, 44}
	for _, seed := range []int64{2, 8} {
		e := env{
			class:    detector.ZeroOAC,
			behavior: detector.Noisy{P: 0.3, Rng: seededRng(seed)},
			race:     10000,
			cmStable: 1,
			base:     loss.NewCapture(0.4, 0.3, seed),
			maxR:     300,
			fullHzn:  true,
		}
		procs, initial := nonAnonProcs(4, idD, valD, ids, values)
		res := run(t, e, procs, initial)
		mustAgreeAndBeValid(t, res)
	}
}

// TestNonAnonPrepareGate drives one election-regime process by hand
// through an election it wins and a dissemination that another process
// vetoes: in the next prepare round it must stay silent although the
// manager makes it active, because its leader (itself) is alive. Only a
// leader believed dead reopens the contest.
func TestNonAnonPrepareGate(t *testing.T) {
	a := NewNonAnon(valueset.MustDomain(4), valueset.MustDomain(1024), 1, 500)
	est := model.Message{Kind: model.KindEstimate, Value: 1}
	vote := model.Message{Kind: model.KindVote}
	veto := model.Message{Kind: model.KindVeto}
	value := model.Message{Kind: model.KindLeaderValue, Value: 500}
	// One election cycle over the 2-bit ID space takes the phase-1 rounds
	// 1 (prepare), 4 and 7 (ID 1 = 01: silent, then vote) and 10 (accept);
	// every phase-3 round carries a veto, so nobody decides.
	for _, tc := range []struct {
		r    int
		send *model.Message
		recv []model.Message
	}{
		{1, &est, []model.Message{est}}, {2, nil, nil}, {3, &veto, []model.Message{veto}},
		{4, nil, nil}, {5, nil, nil}, {6, &veto, []model.Message{veto}},
		{7, &vote, []model.Message{vote}}, {8, nil, nil}, {9, &veto, []model.Message{veto}},
		{10, nil, nil}, {11, &value, []model.Message{value}}, {12, nil, []model.Message{veto}},
		{13, nil, nil},
	} {
		m := a.Message(tc.r, model.CMActive)
		if (m == nil) != (tc.send == nil) || m != nil && *m != *tc.send {
			t.Fatalf("round %d: broadcast %v, want %v", tc.r, m, tc.send)
		}
		a.Deliver(tc.r, multiset.Of(tc.recv...), model.CDNull, model.CMActive)
		if l, ok := a.Leader(); tc.r >= 10 && (!ok || l != 1) {
			t.Fatalf("round %d: leader %d (%t), want itself", tc.r, l, ok)
		}
	}
	if _, decided := a.Decided(); decided {
		t.Fatal("decided although every phase-3 round carried a veto")
	}
}

// TestNonAnonLeaderAccessor drives a short run and checks the Leader
// accessor reports an installed leader.
func TestNonAnonLeaderAccessor(t *testing.T) {
	idD := valueset.MustDomain(4)
	valD := valueset.MustDomain(1 << 10)
	a := NewNonAnon(idD, valD, 2, 500)
	b := NewNonAnon(idD, valD, 3, 600)
	procs := map[model.ProcessID]model.Automaton{1: a, 2: b}
	e := env{class: detector.ZeroOAC, cmStable: 1, ecfFrom: 1, maxR: 200}
	res := run(t, e, procs, map[model.ProcessID]model.Value{1: 500, 2: 600})
	mustAgreeAndBeValid(t, res)
	if _, ok := a.Leader(); !ok {
		t.Fatal("no leader installed at process a")
	}
	if lb, ok := b.Leader(); !ok || lb != mustLeader(t, a) {
		t.Fatal("leaders disagree")
	}
}

func mustLeader(t *testing.T, n *NonAnon) model.Value {
	t.Helper()
	l, ok := n.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	return l
}
