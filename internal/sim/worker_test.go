package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
)

// reuseGrid is a shuffled mix of 241 scenarios for one worker: every
// combination of the four algorithms, five loss setups (none, prob,
// capture, drop, and a BuildLoss factory), both seed schedules and both
// trace modes, three times each, cycling through the wake-up, leader and
// backoff managers, false-positive rates 0 and 0.3, crash schedules and
// system sizes 2 to 6, plus one trial whose automaton panics mid-run. It
// returns the grid and the panicking trial's position.
func reuseGrid() ([]Scenario, int) {
	algs := []Algorithm{AlgPropose, AlgBitByBit, AlgTreeWalk, AlgLeaderRelay}
	losses := []LossMode{LossNone, LossProbabilistic, LossCapture, LossDrop, -1}
	cms := []CMMode{CMWakeUp, CMLeader, CMBackoff}
	var scs []Scenario
	combo := 0
	for _, alg := range algs {
		for _, lm := range losses {
			for _, schedule := range []int{1, 2} {
				for _, trace := range []engine.TraceMode{engine.TraceFull, engine.TraceDecisionsOnly} {
					for rep := 0; rep < 3; rep++ {
						n := 2 + (combo*7+rep)%5
						values := make([]model.Value, n)
						for i := range values {
							values[i] = model.Value((combo*31 + i*17 + rep) % 40)
						}
						s := Scenario{
							Name:         fmt.Sprintf("reuse/%d/%d", combo, rep),
							Algorithm:    alg,
							Values:       values,
							Domain:       40,
							Race:         4,
							CM:           cms[rep],
							Stable:       4,
							LossP:        0.3,
							MaxRounds:    400,
							Trace:        trace,
							Seed:         TrialSeed(17, combo, rep),
							SeedSchedule: schedule,
						}
						if (combo+rep)%2 == 1 {
							s.FalsePositiveRate = 0.3
						}
						if lm >= 0 {
							s.Loss = lm
						} else {
							// A Plan-only adversary from a factory: the engine
							// asks it per pair.
							s.BuildLoss = func(s *Scenario) loss.Adversary {
								return loss.Partition{GroupOf: loss.SplitAt(2), Until: 6}
							}
						}
						if (combo+rep)%3 == 0 {
							s.Crashes = model.Schedule{
								1:                  {Round: 2 + rep, Time: model.CrashBeforeSend},
								model.ProcessID(n): {Round: 5, Time: model.CrashAfterSend},
							}
						}
						scs = append(scs, s)
					}
					combo++
				}
			}
		}
	}
	scs = append(scs, Scenario{
		Name:      "reuse/panic",
		Algorithm: AlgBitByBit,
		Values:    []model.Value{3, 7, 7, 1},
		Loss:      LossProbabilistic,
		LossP:     0.3,
		Trace:     engine.TraceFull,
		Seed:      5,
		BuildProc: func(i int, s *Scenario) model.Automaton { return &panicProc{round: 3} },
	})
	rng := rand.New(rand.NewSource(23))
	rng.Shuffle(len(scs), func(i, j int) { scs[i], scs[j] = scs[j], scs[i] })
	for i := range scs {
		if scs[i].Name == "reuse/panic" {
			return scs, i
		}
	}
	panic("reuseGrid lost its panicking trial")
}

// TestWorkerReuseMatchesFresh runs the whole grid on one worker, the way a
// sweep goroutine runs its trials, and requires every Result to equal a
// fresh RunTrial of the same scenario, including the trial right after the
// quarantined panic. Reuse must be invisible: the worker resets its engine
// state and reseeds its adversaries and detector generator every trial.
// The grid then runs as a sweep on four workers, which interleave the
// trials and release full traces concurrently, with the same Results.
func TestWorkerReuseMatchesFresh(t *testing.T) {
	scs, bombed := reuseGrid()
	if len(scs) < 200 || bombed == len(scs)-1 {
		t.Fatalf("grid of %d trials with the panic at %d: want at least 200 and a trial after the panic", len(scs), bombed)
	}
	w := new(worker)
	reused := make([]Result, len(scs))
	for i, s := range scs {
		got := Runner{}.guardedTrial(w, i, &s)
		reused[i] = got
		if i == bombed {
			if got.Err == nil || got.Err.Error() != "panic: panicProc: deliberate" {
				t.Fatalf("trial %d: the panicking automaton gave %v, want its quarantine", i, got.Err)
			}
			continue
		}
		want := RunTrial(i, s)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("trial %d (%s): errors %v (reused) and %v (fresh)", i, s.Name, got.Err, want.Err)
		}
		if !equalResult(got, want) {
			t.Fatalf("trial %d (%s) after %d reused trials: got %+v, fresh %+v", i, s.Name, i, got, want)
		}
	}
	swept, _ := Runner{Workers: 4}.Sweep(scs)
	for i := range scs {
		if i != bombed && !equalResult(swept[i], reused[i]) {
			t.Fatalf("trial %d (%s): a 4-worker sweep gave %+v, one worker %+v", i, scs[i].Name, swept[i], reused[i])
		}
	}
	if swept[bombed].Err == nil {
		t.Fatalf("trial %d: the 4-worker sweep did not quarantine the panic", bombed)
	}
}

// TestWorkerTrialAllocations audits a warm worker's trial of the shape of
// the benchmark's sweep-small jobs, run as a sweep runs it: four processes
// under v1 probabilistic loss, decisions only, CST 8. Alg 2, the
// benchmark's automaton, allocates 13 objects, against 40 when every trial
// copied its scenario and built its own engine state, execution and v1
// source: the scenario's process and initial-value maps, the four
// automata, the detector and its behavior option, the manager and ECF
// interface boxes, and the decided-value digest. The other automata are
// flat values with no per-round state on the heap, so they allocate the
// same, except that Alg 3 boxes no manager (NoCM is zero-sized) and no ECF
// wrapper (drop loss), and LeaderRelay adds its IDs slice, drawn from a
// generator the worker reseeds in place. Alg 2 under the backoff manager
// allocates 12 (20 when each trial built its own): the worker resets one
// manager in place, and its pointer needs no interface box.
func TestWorkerTrialAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector (sync.Pool drops puts)")
	}
	for _, tc := range []struct {
		name      string
		alg       Algorithm
		domain    uint64
		idSpace   uint64
		loss      LossMode
		cm        CMMode
		maxAllocs float64
	}{
		{"bitbybit", AlgBitByBit, 0, 0, LossProbabilistic, CMAuto, 13},
		{"bitbybit-backoff", AlgBitByBit, 0, 0, LossProbabilistic, CMBackoff, 14},
		{"propose", AlgPropose, 0, 0, LossProbabilistic, CMAuto, 13},
		{"treewalk", AlgTreeWalk, 1 << 16, 0, LossDrop, CMAuto, 11},
		{"leaderrelay-plain", AlgLeaderRelay, 0, 0, LossProbabilistic, CMAuto, 14},
		{"leaderrelay-election", AlgLeaderRelay, 1 << 16, 16, LossProbabilistic, CMAuto, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{
				Algorithm:    tc.alg,
				Values:       []model.Value{1, 7920, 15839, 23758},
				Domain:       tc.domain,
				IDSpace:      tc.idSpace,
				Race:         8,
				Stable:       8,
				Loss:         tc.loss,
				LossP:        0.3,
				CM:           tc.cm,
				Crashes:      model.Schedule{},
				Trace:        engine.TraceDecisionsOnly,
				SeedSchedule: 1,
			}
			if tc.alg != AlgTreeWalk {
				s.ECFRound = 8
			}
			w := new(worker)
			seed := int64(0)
			run := func() {
				seed++
				s.Seed = TrialSeed(1, 0, int(seed))
				if r := (Runner{}).guardedTrial(w, int(seed), &s); r.Err != nil || !r.AllDecided {
					t.Fatalf("trial %d: %+v", seed, r)
				}
			}
			run() // warm the worker and the receive-set pool
			if allocs := testing.AllocsPerRun(200, run); allocs > tc.maxAllocs {
				t.Fatalf("a warm worker's trial allocates %.1f objects, want at most %.0f", allocs, tc.maxAllocs)
			}
		})
	}
}

// TestOneShotTrialAllocations bounds a one-shot full-trace trial, the
// replay path's unit of work: sim.Run must not copy its Scenario to the
// heap (materialize hands the Build* factories a copy of their own).
func TestOneShotTrialAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector (sync.Pool drops puts)")
	}
	s := Scenario{
		Algorithm: AlgBitByBit,
		Values:    []model.Value{1, 7920, 15839, 23758},
		Race:      8,
		Stable:    8,
		ECFRound:  8,
		Loss:      LossProbabilistic,
		LossP:     0.3,
		Trace:     engine.TraceFull,
		Seed:      TrialSeed(1, 0, 3),
	}
	run := func() {
		r, res := RunTrialFull(3, s)
		if r.Err != nil || !r.AllDecided {
			t.Fatalf("trial: %+v", r)
		}
		res.Execution.Release()
	}
	run() // warm the arena and receive-set pools
	if allocs := testing.AllocsPerRun(100, run); allocs > 36 {
		t.Fatalf("a one-shot full-trace trial allocates %.1f objects, want at most 36", allocs)
	}
}
