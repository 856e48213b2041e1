// Package telemetry is the observability core of the sweep pipeline: a
// zero-steady-state-allocation metrics layer (atomic counters, gauges,
// high-water marks, and fixed-bucket log2 histograms), a named snapshot
// registry behind the /metrics endpoint and the per-run reports, a live
// progress reporter, and the opt-in HTTP listener serving expvar-style
// metric snapshots plus net/http/pprof.
//
// # Disabled by default, free when enabled
//
// Telemetry is off until Enable is called. The instrumented packages
// (internal/engine, internal/sim, internal/sink) fetch their metric sets
// through Engine/Sim/SinkIO, which return a shared zero struct while
// disabled: every metric field is a nil pointer, and every metric method is
// nil-receiver-safe, so an instrumented hot path costs one atomic pointer
// load plus predicted-not-taken nil checks — no branches on configuration
// structs, no allocation, no locks. Enabled, each operation is one or two
// atomic integer updates; nothing on any path allocates in steady state
// (asserted by this package's tests and by the engine/runner/sink
// zero-alloc audits, which pass with counters live).
//
// Telemetry is strictly read-only with respect to the record stream: it
// observes trial results and sink writes but never alters bytes, ordering,
// or seeds, so byte-identity goldens hold with it enabled at any worker
// count.
//
// # Metric names
//
// Enable registers the well-known metrics under stable dotted names:
//
//	engine.rounds                 counter  rounds executed, all runs
//	engine.rounds.parallel        counter  rounds run with the shard pool engaged
//	engine.rounds.sequential      counter  rounds run on the sequential path
//	engine.runs                   counter  engine executions started
//	engine.pool.dispatches        counter  shard-pool barrier cycles (phases dispatched)
//	engine.pool.shards            counter  shard calls handed to pool workers
//	engine.calibration.workers    gauge    Calibrate().Workers
//	engine.calibration.minprocs   gauge    Calibrate().MinProcs
//	engine.calibration.barrier_ns gauge    measured dispatch+join cost, ns
//	engine.calibration.step_ns    gauge    measured per-receiver row cost, ns
//	sim.trials                    counter  trials executed (quarantined included)
//	sim.trials.canceled           counter  trials skipped by cooperative cancellation
//	sim.trial.wall_ns             histogram  per-trial wall time, ns (log2 buckets)
//	sim.trial.rounds_to_decide    histogram  last decision round of decided trials
//	sim.quarantine.panic          counter  trials quarantined by a recovered panic
//	sim.quarantine.deadline       counter  trials quarantined by TrialTimeout
//	sim.quarantine.other          counter  trials quarantined by any other error
//	sim.reorder.highwater         max      reorder-window occupancy high-water mark
//	sink.records                  counter  records written
//	sink.records.quarantined      counter  records written with err set
//	sink.bytes                    counter  record bytes written
//	sink.flushes                  counter  explicit flushes
//	sink.flush_ns                 histogram  flush latency, ns
//	sink.resume.salvaged_records  counter  records salvaged from partial shard files
//	sink.resume.torn_tails        counter  torn tails discarded on salvage
//	sink.resume.discarded_bytes   counter  bytes truncated from torn tails
//
// Histograms bucket by bits.Len64 (bucket k counts values in
// [2^(k-1), 2^k)), so 64 fixed buckets cover the full uint64 range with a
// constant-size, allocation-free Observe.
//
// # Endpoint security
//
// Serve binds the listener for /metrics and /debug/pprof. An address
// without a host ("":9190" or ":0") binds localhost only — the profiler
// exposes heap contents, so exporting it off-host must be an explicit
// choice (pass an interface address) behind whatever transport security
// the deployment provides. There is no authentication layer.
package telemetry
