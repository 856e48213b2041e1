package telemetry

import (
	"sync"
	"sync/atomic"
)

// EngineMetrics is the round engine's metric set. Fields are nil until
// Enable runs; every method on a nil metric is a no-op, so the engine
// instruments unconditionally.
type EngineMetrics struct {
	// Runs counts engine executions; Rounds counts rounds across them,
	// split by whether the shard pool was engaged.
	Runs             *Counter
	Rounds           *Counter
	RoundsParallel   *Counter
	RoundsSequential *Counter
	// PoolDispatches counts shard-pool barrier cycles (one per dispatched
	// phase: message generation, plan fill, delivery); PoolShards counts
	// the shard calls those cycles handed to workers. Their ratio against
	// RoundsSequential is the pool's dispatch/idle profile.
	PoolDispatches *Counter
	PoolShards     *Counter
	// Calibration gauges republish engine.Calibrate's result so a running
	// process exposes the numbers its worker sizing came from.
	CalWorkers   *Gauge
	CalMinProcs  *Gauge
	CalBarrierNs *Gauge
	CalStepNs    *Gauge
}

// SimMetrics is the sweep runner's metric set.
type SimMetrics struct {
	// Trials counts executed trials, quarantined included; Canceled counts
	// trials a cooperative cancellation skipped entirely.
	Trials   *Counter
	Canceled *Counter
	// TrialWallNs is the per-trial wall-time distribution; RoundsToDecide
	// is the last-decision-round distribution over fully decided trials —
	// the decision-latency observable of the paper's claims.
	TrialWallNs    *Histogram
	RoundsToDecide *Histogram
	// Quarantine counters split per-trial errors by cause.
	QuarantinePanic    *Counter
	QuarantineDeadline *Counter
	QuarantineOther    *Counter
	// ReorderHighWater is the most results the reorder window ever buffered
	// while waiting for an earlier slot — the sweep's memory-footprint
	// observable.
	ReorderHighWater *Max
}

// SinkMetrics is the record-stream metric set.
type SinkMetrics struct {
	// Records and Bytes count written records; Quarantined counts the
	// subset written with an error set.
	Records     *Counter
	Bytes       *Counter
	Quarantined *Counter
	// Flushes and FlushNs measure explicit flushes of buffered sinks.
	Flushes *Counter
	FlushNs *Histogram
	// Resume salvage stats: records recovered from partial shard files,
	// torn tails discarded, and bytes truncated with them.
	SalvagedRecords *Counter
	TornTails       *Counter
	DiscardedBytes  *Counter
}

// JobsMetrics is the job-supervision metric set (internal/jobs): the bounded
// admission queue, the per-job retry loop, and the drain path each publish
// their load-bearing behaviors here so queue pressure and crash containment
// are observable, not just logged.
type JobsMetrics struct {
	// Submitted counts admission attempts; Admitted the subset that entered
	// the queue; DedupHits submissions coalesced onto an already-queued
	// fingerprint; Evicted jobs displaced by the bounded queue's
	// deterministic eviction; Rejected submissions refused outright (queue
	// full of running/unevictable work, or a malformed spec).
	Submitted *Counter
	Admitted  *Counter
	DedupHits *Counter
	Evicted   *Counter
	Rejected  *Counter
	// QueueDepth is the current number of queued (not yet running) jobs;
	// QueueHighWater its high-water mark.
	QueueDepth     *Gauge
	QueueHighWater *Max
	// Completed/Quarantined/Canceled count terminal job outcomes;
	// Checkpointed counts jobs parked resumable mid-run (drain or
	// cooperative cancellation with durable progress).
	Completed    *Counter
	Quarantined  *Counter
	Canceled     *Counter
	Checkpointed *Counter
	// Attempts counts job executions including retries; Retries the subset
	// after a transient failure; RetryDelayNs the backoff waits the
	// supervisor actually slept.
	Attempts     *Counter
	Retries      *Counter
	RetryDelayNs *Histogram
	// DrainNs measures graceful-shutdown latency: SIGTERM (or Close) to
	// last checkpoint flushed and manifest persisted.
	DrainNs *Histogram
}

// EventsMetrics is the structured-event journal's metric set
// (internal/events): emission volume, the slow-consumer drop policy's
// discards, durable-export lines, and the live subscriber count.
type EventsMetrics struct {
	// Emitted counts journal events published to the ring; Dropped the
	// events a non-blocking subscription's full buffer discarded (the
	// explicit slow-consumer policy); Persisted the lines the durable
	// JSONL exporter wrote.
	Emitted   *Counter
	Dropped   *Counter
	Persisted *Counter
	// Subscribers is the current fan-out subscription count.
	Subscribers *Gauge
}

var (
	enableOnce sync.Once
	defaultReg atomic.Pointer[Registry]
	engineSet  atomic.Pointer[EngineMetrics]
	simSet     atomic.Pointer[SimMetrics]
	sinkSet    atomic.Pointer[SinkMetrics]
	jobsSet    atomic.Pointer[JobsMetrics]
	eventsSet  atomic.Pointer[EventsMetrics]

	zeroEngine EngineMetrics
	zeroSim    SimMetrics
	zeroSink   SinkMetrics
	zeroJobs   JobsMetrics
	zeroEvents EventsMetrics
)

// Enable turns telemetry on for the process: it builds the default registry,
// registers the well-known pipeline metrics, and publishes the metric sets
// the instrumented packages read. Idempotent and safe to call at any time
// (the sets are swapped in atomically); counters start at zero. Returns the
// registry.
func Enable() *Registry {
	enableOnce.Do(func() {
		r := NewRegistry()
		engineSet.Store(&EngineMetrics{
			Runs:             r.Counter("engine.runs"),
			Rounds:           r.Counter("engine.rounds"),
			RoundsParallel:   r.Counter("engine.rounds.parallel"),
			RoundsSequential: r.Counter("engine.rounds.sequential"),
			PoolDispatches:   r.Counter("engine.pool.dispatches"),
			PoolShards:       r.Counter("engine.pool.shards"),
			CalWorkers:       r.Gauge("engine.calibration.workers"),
			CalMinProcs:      r.Gauge("engine.calibration.minprocs"),
			CalBarrierNs:     r.Gauge("engine.calibration.barrier_ns"),
			CalStepNs:        r.Gauge("engine.calibration.step_ns"),
		})
		simSet.Store(&SimMetrics{
			Trials:             r.Counter("sim.trials"),
			Canceled:           r.Counter("sim.trials.canceled"),
			TrialWallNs:        r.Histogram("sim.trial.wall_ns"),
			RoundsToDecide:     r.Histogram("sim.trial.rounds_to_decide"),
			QuarantinePanic:    r.Counter("sim.quarantine.panic"),
			QuarantineDeadline: r.Counter("sim.quarantine.deadline"),
			QuarantineOther:    r.Counter("sim.quarantine.other"),
			ReorderHighWater:   r.Max("sim.reorder.highwater"),
		})
		sinkSet.Store(&SinkMetrics{
			Records:         r.Counter("sink.records"),
			Bytes:           r.Counter("sink.bytes"),
			Quarantined:     r.Counter("sink.records.quarantined"),
			Flushes:         r.Counter("sink.flushes"),
			FlushNs:         r.Histogram("sink.flush_ns"),
			SalvagedRecords: r.Counter("sink.resume.salvaged_records"),
			TornTails:       r.Counter("sink.resume.torn_tails"),
			DiscardedBytes:  r.Counter("sink.resume.discarded_bytes"),
		})
		jobsSet.Store(&JobsMetrics{
			Submitted:      r.Counter("jobs.submitted"),
			Admitted:       r.Counter("jobs.admitted"),
			DedupHits:      r.Counter("jobs.dedup_hits"),
			Evicted:        r.Counter("jobs.evicted"),
			Rejected:       r.Counter("jobs.rejected"),
			QueueDepth:     r.Gauge("jobs.queue.depth"),
			QueueHighWater: r.Max("jobs.queue.highwater"),
			Completed:      r.Counter("jobs.completed"),
			Quarantined:    r.Counter("jobs.quarantined"),
			Canceled:       r.Counter("jobs.canceled"),
			Checkpointed:   r.Counter("jobs.checkpointed"),
			Attempts:       r.Counter("jobs.attempts"),
			Retries:        r.Counter("jobs.retries"),
			RetryDelayNs:   r.Histogram("jobs.retry.delay_ns"),
			DrainNs:        r.Histogram("jobs.drain_ns"),
		})
		eventsSet.Store(&EventsMetrics{
			Emitted:     r.Counter("events.emitted"),
			Dropped:     r.Counter("events.dropped"),
			Persisted:   r.Counter("events.persisted"),
			Subscribers: r.Gauge("events.subscribers"),
		})
		defaultReg.Store(r)
	})
	return defaultReg.Load()
}

// Enabled reports whether Enable has run.
func Enabled() bool { return defaultReg.Load() != nil }

// Default returns the default registry, nil while disabled.
func Default() *Registry { return defaultReg.Load() }

// Engine returns the engine metric set — the shared all-nil zero set while
// telemetry is disabled, so callers never check for nil and hot paths pay
// one atomic load.
func Engine() *EngineMetrics {
	if m := engineSet.Load(); m != nil {
		return m
	}
	return &zeroEngine
}

// Sim returns the sweep-runner metric set (all-nil zero set while disabled).
func Sim() *SimMetrics {
	if m := simSet.Load(); m != nil {
		return m
	}
	return &zeroSim
}

// SinkIO returns the record-stream metric set (all-nil zero set while
// disabled).
func SinkIO() *SinkMetrics {
	if m := sinkSet.Load(); m != nil {
		return m
	}
	return &zeroSink
}

// Jobs returns the job-supervision metric set (all-nil zero set while
// disabled).
func Jobs() *JobsMetrics {
	if m := jobsSet.Load(); m != nil {
		return m
	}
	return &zeroJobs
}

// Events returns the event-journal metric set (all-nil zero set while
// disabled).
func Events() *EventsMetrics {
	if m := eventsSet.Load(); m != nil {
		return m
	}
	return &zeroEvents
}
