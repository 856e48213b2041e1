// Package jobs is the supervised job-execution layer over the streaming
// sweep pipeline: the segment plan/salvage/stream machinery both "sweeprun
// run" and the sweepd daemon execute shards through, plus the supervisor
// that queues, retries, checkpoints, and quarantines those shards as jobs.
//
// # The shared execution path
//
// A Segment is one experiment's (or configuration sweep's) planned record
// sequence for a shard, carrying its group's replay.Plan to verify a
// salvaged prefix record-by-record (Verify: the plan's check at a shard
// position) and the means to stream the remainder after a skip (Stream). GridSegment, WorkSegment, and TrialsSegment build them, and
// every kind streams through sim.Runner's one ordered-delivery loop;
// ExperimentSegments is the one resolver of experiment names, behind both a
// serializable Spec (BuildSegments) and the CLI's -exp flag. Salvage
// reopens a partial shard file, verifies its valid prefix against the plan,
// truncates the torn tail, and positions the file for appending; Stream
// executes the remainder, giving each segment its own JSONL sink and taking
// the segment's counts from that sink's tally; Execute composes the two and
// writes the run report. Because the daemon and the CLI run the identical
// code path, a job's merged output is byte-identical to an uninterrupted
// command-line run — the property the chaos soak pins.
//
// # Job supervision
//
// Supervisor fronts a bounded, fingerprint-deduplicating admission queue
// (deterministic oldest-out eviction when full) before a single execution
// slot. Jobs move Queued → Running → Done, with three escape paths:
// Checkpointed (a drain interrupted the run; the shard file's durable
// prefix makes re-admission a resume), Quarantined (non-transient failure,
// or the per-job attempt budget — the circuit breaker — exhausted by
// transient ones), and Canceled (explicit cancel, or eviction). Transient
// sink failures retry under a backoff.Window, optionally with deterministic
// per-fingerprint jitter; a drain arriving mid-backoff aborts the wait and
// checkpoints. Every queue and lifecycle behavior is published through
// telemetry.Jobs(). With a manifest directory configured, the recoverable
// queue state persists atomically on every transition, so a SIGKILLed
// daemon restarts into the same work.
package jobs
