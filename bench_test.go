package adhocconsensus

// The benchmark harness: one benchmark per table/figure of EXPERIMENTS.md
// (BenchmarkT1..T9, BenchmarkA1..A3, BenchmarkM1), each regenerating its
// experiment and failing if the experiment's internal paper-shape checks
// fail, plus micro-benchmarks for the simulator itself. Run:
//
//	go test -bench=. -benchmem .
//
// Custom metrics: "rounds" reports the rounds-to-decide of the headline
// configuration in the benchmark, so regressions in algorithmic behavior
// (not just CPU time) are visible in benchstat diffs.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"adhocconsensus/internal/core"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multiset"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/valueset"
)

// benchTable runs the named experiment's table per iteration and fails the
// benchmark if the experiment's internal checks fail.
func benchTable(b *testing.B, name string) {
	b.Helper()
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		table, err := e.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		if !table.Pass {
			b.Fatalf("experiment checks failed:\n%s", table)
		}
	}
}

// BenchmarkT1ClassMatrix regenerates Figure 1 + the §1.5 solvability matrix.
func BenchmarkT1ClassMatrix(b *testing.B) { benchTable(b, "T1") }

// BenchmarkT2Alg1Termination measures Theorem 1 (Alg 1 ≤ CST+2).
func BenchmarkT2Alg1Termination(b *testing.B) { benchTable(b, "T2") }

// BenchmarkT3Alg2ValueSweep measures Theorem 2 (Alg 2 ≤ CST+2(lg|V|+1)).
func BenchmarkT3Alg2ValueSweep(b *testing.B) { benchTable(b, "T3") }

// BenchmarkT4Alg3NoCF measures Theorem 3 (Alg 3 ≤ 8·lg|V| after failures).
func BenchmarkT4Alg3NoCF(b *testing.B) { benchTable(b, "T4") }

// BenchmarkT5NonAnonCrossover measures the §7.3 min{lg|V|, lg|I|} result.
func BenchmarkT5NonAnonCrossover(b *testing.B) { benchTable(b, "T5") }

// BenchmarkT6HalfACLowerBound runs the Theorem 6 pigeonhole + composition.
func BenchmarkT6HalfACLowerBound(b *testing.B) { benchTable(b, "T6") }

// BenchmarkT7NoCFLowerBound runs the Theorem 7 non-anonymous search.
func BenchmarkT7NoCFLowerBound(b *testing.B) { benchTable(b, "T7") }

// BenchmarkT8MajHalfGap runs the majority/half single-message separation.
func BenchmarkT8MajHalfGap(b *testing.B) { benchTable(b, "T8") }

// BenchmarkT9Impossibility runs the Theorem 4/8/9 constructions.
func BenchmarkT9Impossibility(b *testing.B) { benchTable(b, "T9") }

// BenchmarkA1NoVetoAblation runs the veto-phase ablation.
func BenchmarkA1NoVetoAblation(b *testing.B) { benchTable(b, "A1") }

// BenchmarkA2LossRateSweep runs the empirical-loss-rate sweep.
func BenchmarkA2LossRateSweep(b *testing.B) { benchTable(b, "A2") }

// BenchmarkA3Substrates measures the backoff and round-sync substrates.
func BenchmarkA3Substrates(b *testing.B) { benchTable(b, "A3") }

// BenchmarkM1MultihopFlood measures the multihop flooding extension.
func BenchmarkM1MultihopFlood(b *testing.B) { benchTable(b, "M1") }

// --- micro-benchmarks of the simulator and library ---

// sweepParallelScenarios is the fixed grid BenchmarkSweepParallel executes:
// Algorithm 2 across network sizes × loss rates × independently seeded
// trials, decisions-only — the experiment-sweep hot path.
func sweepParallelScenarios() []sim.Scenario {
	domain := valueset.MustDomain(1 << 16)
	base := sim.Scenario{
		Algorithm: sim.AlgBitByBit,
		Detector:  detector.ZeroOAC,
		Race:      10,
		Domain:    domain.Size,
		CM:        sim.CMWakeUp,
		Stable:    10,
		ECFRound:  10,
		Loss:      sim.LossProbabilistic,
		MaxRounds: 4000,
		Trace:     engine.TraceDecisionsOnly,
	}
	scenarios := make([]sim.Scenario, 0, 72)
	g := 0 // grid point: size-major, loss rate fastest
	for _, n := range []int{4, 8, 16} {
		values := make([]model.Value, n)
		for i := range values {
			values[i] = model.Value(uint64(i*7919+1) % domain.Size)
		}
		for _, p := range []float64{0.2, 0.35, 0.5} {
			for t := 0; t < 8; t++ {
				s := base
				s.Values = values
				s.LossP = p
				s.Seed = sim.TrialSeed(1, g, t)
				scenarios = append(scenarios, s)
			}
			g++
		}
	}
	return scenarios
}

// BenchmarkSweepParallel prices the parallel sweep runner against the
// sequential path on a fixed 72-scenario grid. The workers=1 case IS the
// sequential path (the runner inlines it with no goroutines); at
// GOMAXPROCS >= 4 the pooled case should show >= 2x wall-clock speedup.
// Results are byte-identical across worker counts (asserted by the sim
// package's determinism tests), so this measures pure scheduling gain.
func BenchmarkSweepParallel(b *testing.B) {
	scenarios := sweepParallelScenarios()
	workerCounts := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		if w > 4 {
			workerCounts = append(workerCounts, 4)
		}
		workerCounts = append(workerCounts, w)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			r := sim.Runner{Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := r.Sweep(scenarios)
				if err != nil {
					b.Fatal(err)
				}
				for k := range results {
					if !results[k].AllDecided {
						b.Fatalf("scenario %d undecided", k)
					}
				}
			}
			b.ReportMetric(float64(len(scenarios))*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkSweepJSONL prices the streaming result path: the same fixed
// grid as BenchmarkSweepParallel, once collected in memory (Sweep) and once
// streamed through the zero-steady-state-allocation JSONL sink
// (SweepTo + internal/sink). The allocs/op delta between the two
// sub-benchmarks is the full cost JSONL streaming adds per sweep — the
// per-round engine hot path allocates nothing extra (also asserted by
// TestJSONLConsumeSteadyStateAllocs in internal/sink).
func BenchmarkSweepJSONL(b *testing.B) {
	scenarios := sweepParallelScenarios()
	params := make([]sink.Params, len(scenarios))
	for i, s := range scenarios {
		params[i] = sink.ParamsOf(s)
	}
	b.Run("memory", func(b *testing.B) {
		r := sim.Runner{Workers: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Sweep(scenarios); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jsonl", func(b *testing.B) {
		j := sink.NewJSONL(io.Discard)
		j.Exp = "bench"
		j.Params = func(i int) sink.Params { return params[i] }
		r := sim.Runner{Workers: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.SweepTo(scenarios, j); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Flush(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkReplayRender prices render-without-rerun (internal/replay): the
// "render" sub-benchmark reproduces the full A2 table from recorded results
// alone — grid re-expansion, merge guards, fingerprint verification, and
// rendering, but not one engine round — while "resimulate" regenerates the
// same table by running the grid. Render must be at least an order of
// magnitude cheaper: that gap is what makes re-rendering a month-old
// multi-machine run from its merged JSONL effectively free.
func BenchmarkReplayRender(b *testing.B) {
	e, err := experiments.ByName("A2")
	if err != nil {
		b.Fatal(err)
	}
	g, _ := e.Grid()
	scenarios, _, err := g.Build()
	if err != nil {
		b.Fatal(err)
	}
	results, err := sim.Runner{Workers: 1}.Sweep(scenarios)
	if err != nil {
		b.Fatal(err)
	}
	records := make([]sink.Record, len(results))
	for i, res := range results {
		records[i] = sink.RecordOf("A2", sink.ParamsOf(scenarios[i]), res)
	}
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table, err := replay.RenderExperiment("A2", records)
			if err != nil {
				b.Fatal(err)
			}
			if !table.Pass {
				b.Fatalf("replayed table failed:\n%s", table)
			}
		}
	})
	b.Run("resimulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table, err := e.Run(0)
			if err != nil {
				b.Fatal(err)
			}
			if !table.Pass {
				b.Fatalf("resimulated table failed:\n%s", table)
			}
		}
	})
}

// BenchmarkEngineRoundThroughput measures raw simulated rounds per second
// in the deterministic engine (Algorithm 2, lossy channel) across network
// sizes, trace modes, and delivery worker counts. The decisions-only
// variants are the experiment sweep hot path; the full variants price the
// columnar trace arena (they should cost nearly the same allocations as
// decisions-only); the w>1 variants price the sharded delivery core at
// sizes where it engages (n >= engine.DefaultDeliveryMinProcs — on a
// single-core host they measure pure barrier overhead, the speedup shows at
// GOMAXPROCS >= 4). ReportAllocs tracks the allocation budget per run (256
// rounds), so allocs/op ÷ 256 is the steady-state allocs/round.
func BenchmarkEngineRoundThroughput(b *testing.B) {
	workerCounts := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		workerCounts = append(workerCounts, w)
	} else {
		// Single-core host: w=2 still exercises the sharded path and prices
		// its barrier; the wall-clock win needs real parallelism.
		workerCounts = append(workerCounts, 2)
	}
	for _, n := range []int{8, 64, 256, 1024} {
		for _, tm := range []struct {
			name string
			mode engine.TraceMode
		}{
			{"decisions", engine.TraceDecisionsOnly},
			{"full", engine.TraceFull},
		} {
			for _, w := range workerCounts {
				if w > 1 && n < engine.DefaultDeliveryMinProcs {
					continue // auto-off: would duplicate the w=1 measurement
				}
				b.Run(fmt.Sprintf("n=%d/%s/w=%d", n, tm.name, w), func(b *testing.B) {
					benchRounds(b, n, tm.mode, w)
				})
			}
		}
	}
}

func benchRounds(b *testing.B, n int, trace engine.TraceMode, workers int) {
	b.Helper()
	const roundsPerRun = 256
	d := valueset.MustDomain(1 << 16)
	b.ReportAllocs()
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		procs := make(map[model.ProcessID]model.Automaton, n)
		initial := make(map[model.ProcessID]model.Value, n)
		for p := 1; p <= n; p++ {
			procs[model.ProcessID(p)] = core.NewAlg2(d, model.Value(p*31))
			initial[model.ProcessID(p)] = model.Value(p * 31)
		}
		cfg := engine.Config{
			Procs:           procs,
			Initial:         initial,
			Detector:        detector.New(detector.ZeroOAC, detector.WithRace(roundsPerRun+1)),
			Loss:            loss.NewProbabilistic(0.3, int64(i)),
			MaxRounds:       roundsPerRun,
			RunFullHorizon:  true,
			Trace:           trace,
			DeliveryWorkers: workers,
			// The threshold the row filter above names, not the one each
			// process calibrates: a w>1 row always measures the sharded path.
			DeliveryMinProcs: engine.DefaultDeliveryMinProcs,
		}
		res, err := engine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalRounds), "ns/round")
}

// BenchmarkEngineScalingCurves is the multicore scaling matrix the CI
// benchmark job publishes (BENCH_pr7.json): full-trace round throughput
// over network size × seed schedule × delivery workers. DeliveryMinProcs
// is pinned to 1 so every (n, w) point actually exercises the sharded
// core — auto-off would silently fold small-n points back into w=1 — and
// the v1 rows price what the sequential schedule leaves on the table: v1
// plans are drawn outside the pool (order-dependent Rng), v2 plans shard
// with delivery. On a single-core host all w>1 points measure pure barrier
// overhead; the scaling shows from GOMAXPROCS >= 4.
func BenchmarkEngineScalingCurves(b *testing.B) {
	const roundsPerRun = 256
	d := valueset.MustDomain(1 << 16)
	for _, n := range []int{64, 256, 1024} {
		for _, sched := range []int{1, 2} {
			for _, w := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("n=%d/sched=v%d/w=%d", n, sched, w), func(b *testing.B) {
					b.ReportAllocs()
					totalRounds := 0
					for i := 0; i < b.N; i++ {
						procs := make(map[model.ProcessID]model.Automaton, n)
						initial := make(map[model.ProcessID]model.Value, n)
						for p := 1; p <= n; p++ {
							procs[model.ProcessID(p)] = core.NewAlg2(d, model.Value(p*31))
							initial[model.ProcessID(p)] = model.Value(p * 31)
						}
						var adv loss.Adversary
						if sched == 2 {
							adv = loss.NewProbabilisticV2(0.3, int64(i))
						} else {
							adv = loss.NewProbabilistic(0.3, int64(i))
						}
						res, err := engine.Run(engine.Config{
							Procs:            procs,
							Initial:          initial,
							Detector:         detector.New(detector.ZeroOAC, detector.WithRace(roundsPerRun+1)),
							Loss:             adv,
							MaxRounds:        roundsPerRun,
							RunFullHorizon:   true,
							Trace:            engine.TraceFull,
							DeliveryWorkers:  w,
							DeliveryMinProcs: 1,
						})
						if err != nil {
							b.Fatal(err)
						}
						totalRounds += res.Rounds
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalRounds), "ns/round")
				})
			}
		}
	}
}

// BenchmarkAlg2Decide measures end-to-end time-to-consensus by |V|.
func BenchmarkAlg2Decide(b *testing.B) {
	for _, size := range []uint64{16, 1 << 16, 1 << 32} {
		b.Run(valueSizeName(size), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				report, err := Config{
					Algorithm: AlgorithmBitByBit,
					Values:    []Value{1, Value(size - 1), Value(size / 2)},
					Domain:    size,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				rounds = report.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAlg3Decide measures the no-ECF tree walk by |V|.
func BenchmarkAlg3Decide(b *testing.B) {
	for _, size := range []uint64{16, 1 << 16, 1 << 32} {
		b.Run(valueSizeName(size), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				report, err := Config{
					Algorithm: AlgorithmTreeWalk,
					Values:    []Value{1, Value(size - 1), Value(size / 2)},
					Domain:    size,
					Loss:      LossDrop,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				rounds = report.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

func valueSizeName(size uint64) string {
	switch {
	case size >= 1<<30:
		return "V=2^32"
	case size >= 1<<15:
		return "V=2^16"
	default:
		return "V=16"
	}
}

// BenchmarkMultisetUnion measures the receive-set workhorse.
func BenchmarkMultisetUnion(b *testing.B) {
	x := multiset.New[model.Message]()
	y := multiset.New[model.Message]()
	for i := 0; i < 32; i++ {
		x.Add(model.Message{Kind: model.KindEstimate, Value: model.Value(i)})
		y.Add(model.Message{Kind: model.KindVote, Value: model.Value(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Union(y).Len() != 64 {
			b.Fatal("union wrong")
		}
	}
}

// BenchmarkDetectorAdvise measures per-advice overhead across classes.
func BenchmarkDetectorAdvise(b *testing.B) {
	for _, class := range []detector.Class{detector.AC, detector.HalfAC, detector.ZeroOAC} {
		b.Run(class.Name, func(b *testing.B) {
			d := detector.New(class, detector.WithRace(100))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Advise(i%200+1, 1, 8, i%9)
			}
		})
	}
}
