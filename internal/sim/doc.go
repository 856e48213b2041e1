// Package sim is the declarative scenario layer between the public API /
// experiment tables and the round engine. It exists so that a consensus run
// is DATA — a [Scenario] value naming the algorithm, detector class,
// contention manager, loss model, crash schedule, and seed — rather than
// bespoke driver code wiring automata, adversaries, and RNGs by hand.
//
// # The model
//
//   - [Scenario] describes one run. Zero values select the same defaults the
//     public Config has always used (weakest tolerable detector class,
//     wake-up service stable from round 1 when the algorithm wants one, ECF
//     from round 1 unless the algorithm needs none, 100k max rounds). Every
//     randomized component derives from Scenario.Seed with the historical
//     offsets (+1 IDs, +2 detector noise, +3 backoff, +4 loss), so a
//     Scenario built from a public Config reproduces the pre-sim executions
//     bit for bit. Escape hatches (BuildProc, BuildLoss, BuildBehavior) let
//     the experiment tables install bespoke automata and adversaries; they
//     are factories invoked inside the running trial, never shared values,
//     so trials stay independent; each receives its own copy of the
//     scenario.
//   - Each enumeration ([Algorithm], [CMMode], [LossMode]) has one name
//     table: Name is the name a shard record carries, String the display
//     name, and [ParseAlgorithm], [ParseCMMode] and [ParseLoss] read the
//     flag spellings. The public API's Algorithm, ContentionMode and
//     LossMode are aliases of these types, so no name is declared twice.
//   - A sweep is a slice of scenarios built by plain loops: the
//     experiment grids in internal/experiments, or the trial sweeps of the
//     public Config.RunTrials (sweeprun -trials). Every trial carries its
//     own seed; a trial sweep derives trial t's from [TrialSeed], a
//     splitmix64 mix of the sweep seed, the grid index, and the trial
//     index. No two trials share a generator, which is what makes the
//     runner free to execute them in any order. [ShardScenarios] splits an
//     expanded sweep round-robin into shards that keep each trial's global
//     index.
//   - [Runner] executes trials on a worker pool. Results land in a slot
//     array indexed by scenario position, so the output — and any
//     aggregation built on it, e.g. stats.Collector — is byte-identical
//     regardless of Workers. Runner.Map is the generic parallel-for used by
//     experiments whose trials are not engine runs (lower-bound pipelines,
//     multihop floods, substrate measurements).
//
// # Determinism
//
// A trial is deterministic because no state crosses from one trial to the
// next. Run and RunTrial materialize the Scenario fresh (automata, detector
// behavior, contention manager, loss adversary, each seeded from
// Scenario.Seed) and only then drive the engine. A sweep goroutine instead
// owns one worker for the whole sweep, and the worker keeps two kinds of
// state between its trials:
//
//   - an engine.State, whose Run resets the process table, buffers, crash
//     columns, execution and Result for every trial;
//   - the seeded components materialize builds from the declarative modes:
//     the Probabilistic and Capture adversaries of both seed schedules, with
//     their loss matrices, the noisy detector's v1 generator and the v1
//     generator of LeaderRelay's default IDs. Each trial sets their
//     parameters and reseeds their generators in place with rand.Rand.Seed,
//     which draws exactly what a new seedstream.NewV1 would
//     (FuzzV1MatchesMathRand reseeds mid-stream).
//
// Everything else (automata, manager, detector, ECF wrapper, and whatever
// BuildProc, BuildLoss and BuildBehavior return) is still constructed per
// trial, so a trial's Result does not depend on what the worker ran before
// it; TestWorkerReuseMatchesFresh checks this over a shuffled mix of 241
// scenarios on one worker, against fresh trials. The contract for Build*
// factories is unchanged: construct fresh state per call; never capture a
// shared *rand.Rand. Under that contract, for a fixed sweep seed the full
// Result slice is byte-identical at 1, 4, or GOMAXPROCS workers (asserted
// by TestSweepParallelDeterminism, including under crash schedules).
package sim
