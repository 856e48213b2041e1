package backoff

import (
	"testing"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/core"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

func procRange(n int) []model.ProcessID {
	out := make([]model.ProcessID, n)
	for i := range out {
		out[i] = model.ProcessID(i + 1)
	}
	return out
}

func allAlive(model.ProcessID) bool { return true }

// driveStandalone runs the manager against a faithful channel: every
// advised-active process broadcasts.
func driveStandalone(m *Manager, procs []model.ProcessID, rounds int) model.CMTrace {
	var trace model.CMTrace
	for r := 1; r <= rounds; r++ {
		adv := m.Advise(r, procs, allAlive)
		broadcasters := 0
		for _, a := range adv {
			if a == model.CMActive {
				broadcasters++
			}
		}
		m.Observe(r, broadcasters)
		trace = append(trace, adv)
	}
	return trace
}

// TestStabilizesToWakeUpService: the recorded advice trace must satisfy the
// wake-up property within a reasonable horizon for a range of sizes and
// seeds.
func TestStabilizesToWakeUpService(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, seed := range []int64{1, 2, 3} {
			m := New(seed)
			trace := driveStandalone(m, procRange(n), 300)
			rwake, err := cm.WakeUpStabilization(trace)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if rwake > 250 {
				t.Fatalf("n=%d seed=%d: stabilized too late (round %d)", n, seed, rwake)
			}
			if _, ok := m.Stabilized(); !ok {
				t.Fatalf("n=%d seed=%d: Stabilized() = false after wake-up", n, seed)
			}
		}
	}
}

// TestWinnerIsStickyAndSingle: after stabilization the same process stays
// the lone active one — the trace also satisfies leader election from the
// lock-in round.
func TestWinnerIsStickyAndSingle(t *testing.T) {
	m := New(7)
	trace := driveStandalone(m, procRange(8), 400)
	if _, err := cm.LeaderStabilization(trace); err != nil {
		t.Fatal(err)
	}
}

// TestWinnerCrashRestartsContention: when the locked-in winner dies the
// manager re-opens contention and stabilizes on someone else.
func TestWinnerCrashRestartsContention(t *testing.T) {
	m := New(3)
	procs := procRange(4)
	driveStandalone(m, procs, 200)
	winner, ok := m.Stabilized()
	if !ok {
		t.Fatal("did not stabilize")
	}
	aliveExceptWinner := func(id model.ProcessID) bool { return id != winner }
	var second model.ProcessID
	for r := 201; r <= 600; r++ {
		adv := m.Advise(r, procs, aliveExceptWinner)
		broadcasters := 0
		for id, a := range adv {
			if a == model.CMActive && id != winner {
				broadcasters++
			}
		}
		m.Observe(r, broadcasters)
		if w, ok := m.Stabilized(); ok && w != winner {
			second = w
			break
		}
	}
	if second == 0 {
		t.Fatal("never re-stabilized after the winner crashed")
	}
}

// TestDeterministicUnderSeed: identical seeds give identical advice.
func TestDeterministicUnderSeed(t *testing.T) {
	a, b := New(42), New(42)
	procs := procRange(6)
	ta := driveStandalone(a, procs, 100)
	tb := driveStandalone(b, procs, 100)
	for r := range ta {
		for _, id := range procs {
			if ta[r][id] != tb[r][id] {
				t.Fatalf("round %d process %d: advice diverged", r+1, id)
			}
		}
	}
}

// TestEndToEndWithAlg2: the full stack — Algorithm 2 driven by the backoff
// manager on a real (ECF) channel with a 0-◇AC detector — must reach
// consensus.
func TestEndToEndWithAlg2(t *testing.T) {
	d := valueset.MustDomain(64)
	procs := map[model.ProcessID]model.Automaton{
		1: core.NewAlg2(d, 10),
		2: core.NewAlg2(d, 20),
		3: core.NewAlg2(d, 30),
		4: core.NewAlg2(d, 40),
	}
	res, err := engine.Run(engine.Config{
		Procs:     procs,
		Initial:   map[model.ProcessID]model.Value{1: 10, 2: 20, 3: 30, 4: 40},
		Detector:  detector.New(detector.ZeroOAC),
		CM:        New(11),
		Loss:      loss.ECF{Base: loss.None{}, From: 1},
		MaxRounds: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided {
		t.Fatal("consensus not reached with the backoff manager")
	}
	if err := engine.CheckAgreement(res); err != nil {
		t.Fatal(err)
	}
	if err := engine.CheckStrongValidity(res); err != nil {
		t.Fatal(err)
	}
	// The recorded CM trace must satisfy the wake-up property.
	if _, err := cm.WakeUpStabilization(res.Execution.CMTrace()); err != nil {
		t.Fatal(err)
	}
}

// TestSingleProcessStabilizesImmediately: a lone contender wins in round 1.
func TestSingleProcessStabilizesImmediately(t *testing.T) {
	m := New(1)
	trace := driveStandalone(m, procRange(1), 3)
	rwake, err := cm.WakeUpStabilization(trace)
	if err != nil || rwake != 1 {
		t.Fatalf("lone contender: rwake=%d err=%v, want 1,nil", rwake, err)
	}
}

// TestAdviseIntoMatchesAdvise: managers built from one seed give the same
// advice round for round whether asked through Advise or AdviseInto, and
// whatever the order of the table, through contention, lock-in, the
// winner's crash and contention again.
func TestAdviseIntoMatchesAdvise(t *testing.T) {
	sorted, shuffled := procRange(6), []model.ProcessID{5, 2, 6, 1, 4, 3}
	byMap, dense, unsorted := New(9), New(9), New(9)
	out := make([]model.CMAdvice, len(sorted))
	outU := make([]model.CMAdvice, len(shuffled))
	var dead, first model.ProcessID
	alive := func(id model.ProcessID) bool { return id != dead }
	for r := 1; r <= 400; r++ {
		if r == 200 {
			first, _ = byMap.Stabilized()
			dead = first
		}
		want := byMap.Advise(r, sorted, alive)
		dense.AdviseInto(r, sorted, alive, out)
		unsorted.AdviseInto(r, shuffled, alive, outU)
		broadcasters := 0
		for i, id := range sorted {
			if out[i] != want[id] {
				t.Fatalf("round %d process %d: AdviseInto %v, Advise %v", r, id, out[i], want[id])
			}
			if out[i] == model.CMActive && alive(id) {
				broadcasters++
			}
		}
		for i, id := range shuffled {
			if outU[i] != want[id] {
				t.Fatalf("round %d process %d: AdviseInto over an unsorted table %v, Advise %v", r, id, outU[i], want[id])
			}
		}
		for _, m := range []*Manager{byMap, dense, unsorted} {
			m.Observe(r, broadcasters)
		}
	}
	if second, ok := byMap.Stabilized(); first == 0 || !ok || second == first {
		t.Fatalf("the run did not lock in, lose and replace a winner (first %d, last %d, locked %t)", first, second, ok)
	}
}

// contender broadcasts its value exactly when advised active, so the
// manager's channel feedback is its own advice.
type contender struct{ msg model.Message }

func (c *contender) Message(_ int, a model.CMAdvice) *model.Message {
	if a == model.CMActive {
		return &c.msg
	}
	return nil
}
func (c *contender) Deliver(int, *model.RecvSet, model.CDAdvice, model.CMAdvice) {}

// TestEngineSteadyStateAllocations: once the manager has locked in a
// winner, an engine round with it allocates nothing, so the allocation
// count of a run does not grow with its length.
func TestEngineSteadyStateAllocations(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			procs := make(map[model.ProcessID]model.Automaton, 4)
			for p := model.ProcessID(1); p <= 4; p++ {
				procs[p] = &contender{msg: model.Message{Kind: model.KindEstimate, Value: model.Value(p)}}
			}
			m := New(5)
			if _, err := engine.Run(engine.Config{
				Procs:          procs,
				CM:             m,
				Loss:           loss.NewProbabilistic(0.3, 7),
				MaxRounds:      rounds,
				RunFullHorizon: true,
				Trace:          engine.TraceDecisionsOnly,
			}); err != nil {
				t.Error(err)
			}
			if _, ok := m.Stabilized(); !ok {
				t.Errorf("no winner after %d rounds", rounds)
			}
		}
	}
	run(64)() // warm the receive-set pool
	short := testing.AllocsPerRun(20, run(64))
	long := testing.AllocsPerRun(20, run(576))
	if perRound := (long - short) / 512; perRound > 0.05 {
		t.Fatalf("stabilized backoff rounds allocate %.2f objects/round (short run %.0f, long run %.0f allocs), want 0",
			perRound, short, long)
	}
}
