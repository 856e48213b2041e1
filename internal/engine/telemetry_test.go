package engine

import (
	"testing"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/telemetry"
)

// TestRunTelemetryCounters: a sequential run advances the run and round
// counters and nothing on the pool side.
func TestRunTelemetryCounters(t *testing.T) {
	telemetry.Enable()
	em := telemetry.Engine()
	runsB, roundsB := em.Runs.Load(), em.Rounds.Load()
	seqB, parB := em.RoundsSequential.Load(), em.RoundsParallel.Load()

	res, err := Run(Config{
		Procs: map[model.ProcessID]model.Automaton{
			1: &decideAfter{value: 1, round: 1},
			2: &decideAfter{value: 1, round: 1},
		},
		MaxRounds:      8,
		RunFullHorizon: true,
		Trace:          TraceDecisionsOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := em.Runs.Load() - runsB; got != 1 {
		t.Fatalf("engine.runs advanced %d, want 1", got)
	}
	if got := em.Rounds.Load() - roundsB; got != uint64(res.Rounds) {
		t.Fatalf("engine.rounds advanced %d, want %d", got, res.Rounds)
	}
	if got := em.RoundsSequential.Load() - seqB; got != uint64(res.Rounds) {
		t.Fatalf("engine.rounds.sequential advanced %d, want %d", got, res.Rounds)
	}
	if got := em.RoundsParallel.Load() - parB; got != 0 {
		t.Fatalf("engine.rounds.parallel advanced %d on a sequential run", got)
	}
}

// TestParallelRunPoolTelemetry: a sharded run publishes its dispatch/shard
// counts — two barrier cycles per round (message generation + delivery) for
// a non-sharded-planner adversary.
func TestParallelRunPoolTelemetry(t *testing.T) {
	telemetry.Enable()
	em := telemetry.Engine()
	parB, dispB, shardB := em.RoundsParallel.Load(), em.PoolDispatches.Load(), em.PoolShards.Load()

	procs := make(map[model.ProcessID]model.Automaton, 8)
	for i := 0; i < 8; i++ {
		procs[model.ProcessID(i+1)] = &decideAfter{value: 1, round: 1}
	}
	res, err := Run(Config{
		Procs:            procs,
		MaxRounds:        6,
		RunFullHorizon:   true,
		Trace:            TraceDecisionsOnly,
		DeliveryWorkers:  2,
		DeliveryMinProcs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := em.RoundsParallel.Load() - parB; got != uint64(res.Rounds) {
		t.Fatalf("engine.rounds.parallel advanced %d, want %d", got, res.Rounds)
	}
	dispatches := em.PoolDispatches.Load() - dispB
	if dispatches != 2*uint64(res.Rounds) {
		t.Fatalf("engine.pool.dispatches advanced %d, want %d (2 per round)", dispatches, 2*res.Rounds)
	}
	shards := em.PoolShards.Load() - shardB
	if shards < dispatches || shards > 2*dispatches {
		t.Fatalf("engine.pool.shards advanced %d for %d dispatches at 2 workers", shards, dispatches)
	}
}

// TestCalibrationTelemetryGauges: Calibrate republishes its result through
// the calibration gauges, including under a test override.
func TestCalibrationTelemetryGauges(t *testing.T) {
	telemetry.Enable()
	override := &Calibration{Workers: 3, MinProcs: 48, BarrierNs: 1000, StepNs: 10}
	calibrationOverride.Store(override)
	defer calibrationOverride.Store(nil)
	if got := Calibrate(); got != *override {
		t.Fatalf("Calibrate = %+v under override", got)
	}
	em := telemetry.Engine()
	if em.CalWorkers.Load() != 3 || em.CalMinProcs.Load() != 48 ||
		em.CalBarrierNs.Load() != 1000 || em.CalStepNs.Load() != 10 {
		t.Fatalf("calibration gauges = %d/%d/%d/%d, want 3/48/1000/10",
			em.CalWorkers.Load(), em.CalMinProcs.Load(), em.CalBarrierNs.Load(), em.CalStepNs.Load())
	}
}

// TestDecisionsOnlyAllocsWithTelemetryLive repeats the headline steady-state
// assertion with counters live: the per-run telemetry publish is a constant
// handful of atomic ops, so the per-ROUND allocation count stays zero.
func TestDecisionsOnlyAllocsWithTelemetryLive(t *testing.T) {
	telemetry.Enable()
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
		t.Fatalf("with telemetry live, steady state allocates %.2f objects/round (short %.0f, long %.0f), want 0",
			perRound, short, long)
	}
}
