// Package adhocconsensus is a library for fault-tolerant consensus in
// single-hop wireless ad hoc networks with unreliable broadcast, receiver-
// side collision detectors, and contention managers — a full implementation
// of "Consensus and Collision Detectors in Wireless Ad Hoc Networks"
// (Chockler, Demirbas, Gilbert, Newport, Nolte; PODC 2005 / Newport's MIT
// thesis, 2006).
//
// # The model
//
// Processes run in synchronized rounds over a single-hop radio channel on
// which ANY receiver may lose ANY subset of the messages broadcast in a
// round (the paper's deliberate break from the "total collision model").
// Two services tame the chaos:
//
//   - a collision detector returns, each round, either ± ("you may have
//     lost a message") or null, and is classified by completeness (when ±
//     is guaranteed) × accuracy (when null is guaranteed) — the classes AC,
//     maj-AC, half-AC, 0-AC and their eventually-accurate ◇ variants;
//   - a contention manager advises each process active or passive, and
//     eventually stabilizes on a single active broadcaster (wake-up
//     service / leader election service), realizable by backoff.
//
// # The algorithms
//
// Four consensus algorithms cover the solvable corner of the model:
//
//   - AlgorithmPropose (Alg 1): constant rounds after stabilization, needs
//     majority completeness.
//   - AlgorithmBitByBit (Alg 2): O(lg|V|) rounds, needs only zero
//     completeness — the weakest useful detector.
//   - AlgorithmTreeWalk (Alg 3): works with NO delivery guarantee at all
//     (collision notifications are the only channel), needs an accurate
//     detector.
//   - AlgorithmLeaderRelay (§7.3): non-anonymous, O(min{lg|V|, lg|I|}).
//
// The matching lower bounds (Theorems 4–9) are executable in
// internal/lowerbound and demonstrated by cmd/lowerbound.
//
// # Performance
//
// The simulator's round loop is engineered for near-zero steady-state
// allocation, because every experiment table drives thousands of full
// executions through it:
//
//   - dense process state: the engine indexes all per-process
//     bookkeeping (crash schedule, contention advice, broadcasts,
//     halted/decided flags) by a sorted process table built once per
//     run — no per-round maps;
//   - compact multisets: receive sets use a slice-backed small
//     representation. The engine numbers each round's distinct messages
//     once and fills a set with one multiset.AddNew per message it heard
//     (no scan, no hash), so a set stays compact at any size; the map is
//     built only when AddN adds a new element to a set already holding 16,
//     and Reset keeps it as a spare. Sets reset in place and are recycled
//     through a sync.Pool across rounds and runs;
//   - loss rows: the built-in adversaries hand the engine each round's
//     loss matrix (loss.ConcurrentPlanner.PlanRows), and each receiver
//     reads its row by index in one branch-free pass that counts the
//     senders it hears by message, with no call per (receiver, sender)
//     pair;
//   - trace modes: Config.TraceDecisionsOnly (engine.TraceDecisionsOnly
//     internally) skips recording per-round views entirely for callers
//     that only read decisions — the default for the experiment tables —
//     while the full mode stays byte-for-byte equivalent on decisions;
//   - columnar trace arena: full traces record into model.TraceArena —
//     one flat slice per view field plus a shared receive arena of
//     (message, count) segments — instead of per-round map[ProcessID]View,
//     so recording a full execution is also allocation-free in steady
//     state (n=8: 49 allocs per 256-round run vs 38 decisions-only, down
//     from 4065). The arena is the only shape of a recorded execution:
//     views materialize lazily through the model accessors, and
//     validation, indistinguishability and the derived traces read its
//     columns directly;
//   - parallel round core: Config.DeliveryWorkers (engine.Config
//     .DeliveryWorkers) shards each round's O(n·senders) delivery loop
//     across a worker pool for large systems — intra-run parallelism
//     complementing the sweep runner's cross-trial parallelism — with
//     decisions and traces byte-identical at any worker count; under
//     SeedScheduleV2 the same pool also fills the rows of the adversary's
//     loss matrix and generates the round's messages, making the whole
//     round body parallel. DeliveryWorkersAuto sizes the pool from a one-time
//     startup calibration (engine.Calibrate measures this host's
//     shard-barrier cost against its per-row fill cost and derives both
//     the worker count and the auto-off system-size threshold); the
//     sharded path still auto-disables for order-dependent components
//     (v1 adversaries draw their plans sequentially outside the pool, a
//     detector with FalsePositiveRate noise keeps sequential delivery).
//
// Headline numbers from BenchmarkEngineRoundThroughput (Algorithm 2, 8
// processes, 30% probabilistic loss, 256 rounds/run), against the
// pre-refactor engine. ns/round was taken on one 2.7GHz core when the
// columnar arena landed; allocs/run is the current count, all of it a
// run's fixed cost, because the round step keeps every round variable in
// the run state:
//
//	                      ns/round   allocs/run
//	seed (full trace)         5749         9589
//	full trace                1402           49   (4.1× / 196×)
//	decisions only            1185           38   (4.9× / 252×)
//
// On the shared 2-core Xeon box (go1.24.0, 20 runs per row, w=1), counting
// each receiver's row by message class took n=256 rounds from 0.57 to
// 0.28 ms decisions-only and from 0.73 to 0.44 ms at full trace, and n=64
// from 37 to 19 µs and from 51 to 31 µs. Allocs/run did not rise: at
// n=256 they read 295 decisions-only (296 before) and 336 at full trace,
// and at n=8 35 and 46.
//
// BENCH_baseline.json records the full benchmark suite; regenerate it with
// go test -run '^$' -bench . -benchmem. BENCH_pr2.json snapshots the suite
// after the declarative-scenario refactor, BENCH_pr3.json after the
// streaming-sink subsystem and the message-recycling satellite,
// BENCH_pr4.json after the columnar trace arena and parallel delivery core
// (benchmark matrix now n = 8/64/256/1024 × trace mode × worker count),
// BENCH_pr5.json after the replay subsystem, BENCH_pr6.json after the
// crash-safety layer (same-box A/B: healthy-path cost within noise, alloc
// counts unchanged), and BENCH_pr7.json after the seed-schedule-v2
// parallel round core (BenchmarkEngineScalingCurves: w × n × schedule,
// with the v2-over-v1 speedup table CI regenerates on a multicore
// runner).
//
// # Scenario sweeps
//
// Underneath the public Config sits a declarative scenario layer
// (internal/sim): a run is a sim.Scenario value — algorithm, detector
// class, contention manager, loss model, topology of crashes, seed — a
// sweep is a slice of scenarios, and a worker-pool runner executes trials
// in parallel. Determinism is preserved by construction: every
// randomized component is built inside its trial from the scenario's seed,
// and per-trial seeds derive from the sweep seed via a splitmix64 mix of
// (sweep seed, scenario index, trial index), so results are byte-identical
// at any worker count. Config.Run translates to a Scenario internally;
// Config.RunTrials exposes the parallel path publicly (cmd/consensus-sim
// -trials/-parallel). The experiment tables are declared once, in
// internal/experiments' registry, each as a scenario grid or as a work
// pipeline of serializable items, and run on the same runner
// (cmd/benchtab -workers).
//
// # Seed schedules
//
// A seed schedule is the rule by which a trial's seed expands into the
// loss adversary's per-round random draws (detector noise and backoff are
// unaffected). Config.SeedSchedule selects it:
//
//   - SeedScheduleV1 (the default; 0 means v1) is the historical
//     sequential schedule: one generator per adversary, advanced draw by
//     draw in receiver-major order. Order-dependent by construction, so
//     the plan must be drawn single-threaded — but byte-identical to
//     every recording made before schedules were versioned. The generator
//     is seedstream.NewV1, which every seeded component shares: its stream
//     is bit-identical to math/rand's for the same seed, but it computes
//     each of its 607 state words when a draw first reads it, so a trial
//     that draws a few dozen numbers does not pay for seeding all of them.
//   - SeedScheduleV2 is the counter-based schedule (internal/seedstream):
//     splitmix64's finalizer keys an independent stream per (trial seed,
//     round, receiver), and the i-th draw of a stream is a pure function
//     At(key, i) of its index. A receiver's loss row can therefore be
//     filled at any time, in any order, by any worker — which is what
//     lets the delivery pool fill the plan in shards — and the result is
//     byte-identical at every worker count.
//
// The schedule version is part of a recording's identity: sim.Scenario
// and sink.Params carry it, fingerprints differ between versions (v1
// fingerprints are unchanged, pinned by golden test), and "sweeprun
// merge"/-resume reject mixed-schedule inputs with a typed, positioned
// error (sink.ScheduleMismatchError) — v1 and v2 draws differ, so their
// trials are different experiments even at the same seed. v1 remains
// fully selectable for byte-identical replay of historical recordings.
//
// # Streaming sinks and sharded sweeps
//
// Sweeps stream instead of accumulating: the runner delivers each trial's
// digested result, in trial order, into a result sink (internal/sink) —
// in-memory collection or buffered JSONL with a stable versioned schema
// (scenario fingerprint, trial seed, rounds, decision digest, and the
// detector/CM/loss params under the names internal/sim's name tables give
// them). Publicly, Config.ResultSink taps the per-trial stream of
// RunTrials, and Config.StreamTrials executes one shard of a larger run:
// trial seeds depend only on Config.Seed and the global trial index, so k
// machines each running one shard produce JSONL files whose union is
// byte-identical to the single-machine sweep. cmd/sweeprun drives both
// directions — "run" executes a shard of an experiment grid or
// configuration sweep, "merge" folds shard files back into exactly the
// tables cmd/benchtab prints and the statistics consensus-sim -trials
// prints (golden-tested, with the records' plan rejecting shards from
// mismatched grids, configurations or versions). consensus-sim -trials
// additionally reports per-trial seed provenance, so one anomalous trial
// out of a million can be re-run standalone by passing its derived seed to
// a single Run.
//
// # Replay and forensics
//
// The record→replay→verify loop (internal/replay) makes recorded runs
// first-class artifacts:
//
//   - universal work items: the bespoke pipelines — the lower-bound
//     constructions T6/T7/T9, the A3 substrates, the M1 multihop floods —
//     declare their trials as serializable sink.WorkItems (kind, canonical
//     parameters, seed) dispatched through registered executors, so the same
//     deterministic shard-and-merge machinery that serves scenario grids
//     serves EVERY experiment ("sweeprun run -exp M1 -shard 0/4"; k-shard
//     merges are golden-tested byte-identical);
//   - render-without-rerun: "sweeprun replay" (and merge) reproduce every
//     experiment table from merged JSONL alone — byte-identical and
//     without invoking the engine; re-rendering a recorded run is an order
//     of magnitude cheaper than re-simulating it (BenchmarkReplayRender).
//     Every record first passes its group's replay.Plan — the one check of
//     experiment, index, seed, seed schedule, params, work item and
//     fingerprint that resume, merge, replay, verify and merge's per-shard
//     verdicts all run;
//   - forensic re-execution: "sweeprun verify" flags recorded trials worth
//     auditing (undecided, agreement/validity violations, top-k slowest, or
//     a full digest recheck), re-runs each flagged seed at full trace
//     fidelity, validates the fresh columnar trace against the recorded
//     decision digest and the formal model's legality constraints, and
//     writes per-trial trace bundles. Publicly, Config.Replay audits one
//     recorded TrialResult and Config.ReplayFlagged sweeps a recorded run
//     for anomalies. A recorded agreement violation is only evidence when
//     its execution replays exactly — this is what makes the sweep pipeline
//     audit-grade;
//   - arena recycling: executions expose Release, handing the columnar
//     trace arena back to a shape-keyed pool, so trace-heavy loops (the
//     replay verifier, validation pipelines) allocate nothing per run in
//     steady state.
//
// # Robustness and recovery
//
// Million-trial sweeps run on real machines: processes get SIGKILLed,
// disks fill, automata under adversarial schedules hit bugs. The sweep
// pipeline is crash-safe end to end, without giving up byte-identity:
//
//   - panic isolation: a trial that panics — in the automaton, the
//     detector, or a work-item executor — does not kill the worker pool.
//     The runner recovers it into the trial's result (engine.PanicError,
//     deterministic message, stack preserved for forensics), streams a
//     quarantine record (err set, digest zero) in the trial's ordered
//     slot, and finishes the sweep; the first per-trial error surfaces
//     after the sweep as a typed error. Streams stay byte-identical at
//     any worker count even when trials panic;
//   - deadlines and cancellation: Config.TrialTimeout quarantines trials
//     that overrun a wall-clock budget with a deterministic deadline
//     error; RunTrialsContext/StreamTrialsContext thread a
//     context.Context through the worker pool, so cancellation drains
//     in-flight trials and delivers a contiguous, flushed prefix.
//     cmd/sweeprun translates SIGINT/SIGTERM into that cancellation and
//     exits with a distinct documented code after printing the resume
//     command (a second signal kills immediately);
//   - resumable shards: sink.ReadRecordsPartial salvages the valid
//     record prefix of a torn shard file (a crash mid-write leaves at
//     most one broken final line); sink.ReadRecords is its strict mode.
//     A line in the form the shard writer writes is decoded in one pass
//     by hand, and every other line by encoding/json, so the lines
//     accepted and rejected, the records read and the error texts are
//     those of encoding/json alone.
//     "sweeprun run -resume" checks each salvaged record with the
//     segment's replay.Plan at its shard position — experiment, global
//     index, seed, seed schedule, params, fingerprint — then truncates
//     the tail and appends only the trials not yet durable. Because
//     delivery is strictly ordered and seeds depend only on global
//     indices (Config.StreamTrialsFrom), the finished file is
//     byte-identical to an uninterrupted run's; a mismatched resume is
//     rejected with the file untouched. A failed sink write aborts the
//     sweep with a valid resumable prefix on disk: sweeprun exits 3 so
//     the run can be resumed with -resume, and the job supervisor
//     retries the job, salvaging that prefix;
//   - fault injection: internal/chaos wraps any sink or executor with
//     seeded, deterministic faults — panic at trial i, error every k-th
//     write, torn write at a byte offset, stall past a deadline — so the
//     recovery paths above are themselves tested under the race
//     detector, and CI kills a live shard mid-sweep, resumes it, and
//     diffs the merge against an uninterrupted run.
//
// # Observability
//
// The pipeline is instrumented end to end by internal/telemetry, an
// allocation-free metrics core (atomic counters, gauges, high-water marks,
// and log2 histograms behind a named snapshot registry). Telemetry is off
// by default and costs one atomic load per instrumented site when disabled;
// telemetry.Enable turns it on process-wide, and every observation is an
// atomic op — the engine's zero-steady-state-allocation contract and the
// sink's byte-identical streams hold with counters live (both are asserted
// under test). Well-known metrics cover the engine (engine.runs,
// engine.rounds{,.parallel,.sequential}, engine.pool.dispatches/shards,
// engine.calibration.*), the sweep runner (sim.trials, sim.trial.wall_ns
// and sim.trial.rounds_to_decide histograms, sim.quarantine.
// panic/deadline/other, sim.reorder.highwater), and the record stream
// (sink.records, sink.bytes, sink.flush_ns,
// sink.resume.salvaged_records/torn_tails/discarded_bytes).
//
// cmd/sweeprun exposes three consumers of the same registry:
//
//   - live progress: "run -progress" renders a deterministic ticker to
//     stderr (segment, trials done/planned, trials/s, ETA, quarantine
//     count); -quiet silences informational output;
//   - run reports: every "run -o FILE" writes FILE.report.json — status,
//     per-segment trial accounting (planned/salvaged/executed/quarantined
//     by cause), wall-time breakdown, histograms, calibration, and the
//     seed-schedule version. "-report none" disables, "-report PATH"
//     redirects; "sweeprun report FILE" summarizes and validates one
//     (telemetry.ParseReport is the schema contract);
//   - a metrics endpoint: "-telemetry-addr HOST:PORT" serves /metrics
//     (the registry as deterministic JSON) and net/http/pprof under
//     /debug/pprof/ for profiling live sweeps. Host-less addresses bind
//     loopback — the endpoint exposes process internals, so exposure
//     beyond localhost is an explicit opt-in.
//
// Telemetry is strictly read-only with respect to results: enabling it,
// or running with the endpoint live, leaves shard bytes identical at any
// worker count.
//
// Counters are aggregate truth; internal/events is the narrative truth
// beside them: a structured event journal of hierarchical spans (job →
// segment → trial-batch, emitted at per-trial granularity and coarser —
// never per-round) and point events (job.admit/dedupe/evict/retry/
// checkpoint/cancel/quarantine, drain, salvage, torn_tail, quarantine
// with cause=panic|deadline|other, sink.flush), each carrying
// a monotonic sequence number and an injectable-clock timestamp. The
// journal is a bounded lock-free ring with fan-out subscriptions — a
// blocking lossless mode feeds the durable per-attempt export
// (<out>.events.jsonl, whose event counts reconcile exactly with the run
// report: each segment.end carries the count its segment's sink tallied,
// which is the report's executed count, and sim.Runner's one ordered
// delivery loop journals a quarantine point and counts its cause at the
// moment the sink accepts the record), and a non-blocking mode serves live
// watchers under an explicit slow-consumer drop policy (drops surface in
// events.dropped and per-subscription). Like telemetry it is an observer:
// journaling on, exported, and subscribed leaves shard bytes identical at
// any worker count, and the engine/sink allocation audits hold with a
// subscriber attached.
//
// The daemon turns that journal into a query surface. sweepd serves, per
// job: GET /jobs/{id}/events — one SSE connection streaming the journal
// and the per-trial records as they become durable (a finished job
// replays its persisted journal; "sweeprun tail ADDR JOB" is the terminal
// client); GET /jobs/{id}/results — experiment tables, trial statistics
// and seed provenance rendered from the durable records by cli.RenderGroup,
// the renderer "sweeprun replay" prints through, so the two are
// byte-identical and nothing is re-simulated; GET /jobs/{id}/flagged —
// quarantined/undecided/violation trials selected by the shared
// replay.Selector syntax; and /metrics?name=PREFIX — one registry subtree,
// histogram buckets labeled with human-readable bounds ("sweeprun help
// events" summarizes the surfaces).
//
// # Job supervision
//
// The batch CLI has a daemon face: cmd/sweepd accepts sweep-shard jobs
// over a loopback HTTP API (sharing the telemetry listener) and executes
// them through internal/jobs — the segment-plan/salvage/stream code path
// "sweeprun run" uses. Each step of it exists once: sim.Runner's ordered
// delivery loop streams grids, work items and configuration sweeps alike,
// jobs.ExperimentSegments plans experiment names for both faces, and
// internal/cli renders recorded results for sweeprun and sweepd. A
// supervisor fronts a bounded, fingerprint-deduplicating admission queue
// before a single execution slot: transient sink failures retry under a
// backoff window (optionally with deterministic per-job jitter), a
// per-job attempt budget quarantines repeat offenders, panics in the
// execution path quarantine the job without killing the daemon, and
// SIGTERM drains — the running job checkpoints to a durable resumable
// prefix and the queue persists to an atomically-written manifest that
// the next start re-admits. Because every attempt resumes through the
// salvage path, a finished job's shard file is byte-identical to an
// uninterrupted command-line run, even across a SIGKILL and restart (the
// CI daemon soak proves this with cmp). Job status documents carry the
// run report verbatim; queue and lifecycle behavior is observable at
// /metrics (jobs.*).
//
// # Quick start
//
//	report, err := adhocconsensus.Config{
//	    Algorithm: adhocconsensus.AlgorithmBitByBit,
//	    Values:    []adhocconsensus.Value{3, 7, 7, 1},
//	    Domain:    16,
//	}.Run()
//	if err != nil { ... }
//	fmt.Println("agreed on", report.Agreed, "in", report.Rounds, "rounds")
//
// See examples/ for realistic scenarios (sensor calibration, clusterhead
// election, pre-aggregation voting) and cmd/benchtab for the experiment
// harness that regenerates every table of EXPERIMENTS.md.
package adhocconsensus
