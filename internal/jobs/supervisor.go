package jobs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/telemetry"
)

// Options configures a Supervisor. The zero value is usable: a 64-slot
// queue, a 3-attempt budget, a 250ms→5s backoff window without jitter, no
// manifest persistence, and discarded informational output.
type Options struct {
	// QueueCap bounds the admission queue (default 64).
	QueueCap int
	// MaxAttempts is the per-job attempt budget, the circuit breaker's
	// threshold: a job whose transient failures exhaust it is quarantined
	// instead of retried forever (default 3).
	MaxAttempts int
	// Backoff shapes the delay between a job's retries. Zero Base/Cap
	// select 250ms/5s. Set Jitter (and leave JitterSeed zero) to fan
	// concurrent retriers out deterministically: each job draws from the
	// window keyed by its own fingerprint.
	Backoff backoff.Window
	// Dir, when set, persists the recoverable queue manifest
	// (Dir/jobs.manifest.json) across restarts: queued, running, and
	// checkpointed jobs are re-admitted by New, finished ones reload for
	// status. Empty disables persistence.
	Dir string
	// Info receives the informational output of executing jobs (resume
	// notices). Default io.Discard.
	Info io.Writer
	// Run overrides how a job attempt executes (default Execute) — the
	// fault-injection seam: the chaos harness wraps it to fail, panic, or
	// stall attempts deterministically. A panic out of Run is contained:
	// the attempt is recovered and the job quarantined, never the
	// supervisor killed.
	Run RunFunc
}

// RunFunc executes one job attempt; Execute is the production implementation.
type RunFunc func(ctx context.Context, spec Spec, info io.Writer) (*telemetry.Report, error)

func (o Options) window() backoff.Window {
	w := o.Backoff
	if w.Base <= 0 {
		w.Base = 250 * time.Millisecond
	}
	if w.Cap <= 0 {
		w.Cap = 5 * time.Second
	}
	return w
}

func (o Options) attempts() int {
	if o.MaxAttempts <= 0 {
		return 3
	}
	return o.MaxAttempts
}

// Supervisor owns the job lifecycle: a bounded dedup admission queue in
// front of a single execution slot, per-job retry with backoff and a
// circuit breaker, checkpointing through the shard files' salvage/resume
// machinery, and a graceful drain that parks running work resumable.
//
// One slot, deliberately: each segment's trial counts come from its own
// sink, but the run report's quarantine cause split, histograms and metrics
// snapshot are read from process-global telemetry, so two jobs executing
// concurrently would mix those. Each job parallelizes internally through
// the trial worker pool — the slot serializes jobs, not trials.
type Supervisor struct {
	opts Options
	q    *queue

	baseCtx context.Context
	drain   context.CancelFunc

	mu        sync.Mutex
	jobs      map[int64]*Job
	order     []int64 // submission order, for stable status listings
	running   *Job
	cancelRun context.CancelFunc
	nextID    int64
	draining  bool

	wake chan struct{}
	done chan struct{}
}

// New builds a supervisor. When opts.Dir names a directory holding a
// manifest from a previous process, its jobs reload: queued, running, and
// checkpointed ones re-enter the queue (their shard files' durable
// prefixes make re-execution a resume, not a redo), terminal ones reload
// for status. Call Start to begin executing.
func New(opts Options) (*Supervisor, error) {
	if opts.Info == nil {
		opts.Info = io.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{
		opts:    opts,
		q:       newQueue(opts.QueueCap),
		baseCtx: ctx,
		drain:   cancel,
		jobs:    make(map[int64]*Job),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if opts.Dir != "" {
		if err := s.loadManifest(); err != nil {
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// Start launches the execution loop.
func (s *Supervisor) Start() {
	go s.loop()
	s.kick()
}

// kick nudges the loop without blocking.
func (s *Supervisor) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit validates and admits a spec. A duplicate of a queued or running
// job coalesces onto it (the existing job's status returns, no new job is
// created); a full queue deterministically evicts its oldest queued job.
// Submissions are refused while draining.
func (s *Supervisor) Submit(spec Spec) (Status, error) {
	m := telemetry.Jobs()
	jal := events.Active()
	m.Submitted.Inc()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		m.Rejected.Inc()
		jal.PointJob(events.TypeReject, 0, 0)
		return Status{}, err
	}
	// Compile eagerly: a spec that cannot build its plan (unknown
	// experiment, bad config flags) is refused at admission, not
	// quarantined after queueing.
	if _, err := BuildSegments(spec); err != nil {
		m.Rejected.Inc()
		jal.PointJob(events.TypeReject, 0, 0)
		return Status{}, err
	}
	fp := spec.Fingerprint()

	// Lock order is always s.mu → q.mu (push/remove under s.mu; the loop's
	// pop takes q.mu alone), so holding s.mu across the queue call is safe.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		m.Rejected.Inc()
		jal.PointJob(events.TypeReject, 0, 0)
		return Status{}, fmt.Errorf("jobs: supervisor is draining")
	}
	if r := s.running; r != nil && r.Fingerprint == fp {
		st := r.status()
		s.mu.Unlock()
		m.DedupHits.Inc()
		jal.PointJob(events.TypeDedupe, st.ID, 0)
		return st, nil
	}
	s.nextID++
	j := &Job{ID: s.nextID, Spec: spec, Fingerprint: fp, State: StateQueued, admitted: make(chan struct{})}
	dup, evicted := s.q.push(j)
	if dup != nil {
		// Coalesced onto the queued duplicate: no new job exists.
		s.nextID--
		st := dup.status()
		s.mu.Unlock()
		jal.PointJob(events.TypeDedupe, st.ID, 0)
		return st, nil
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	var evictedID int64
	if evicted != nil {
		evicted.State = StateCanceled
		evicted.Err = "evicted: admission queue full"
		evictedID = evicted.ID
		telemetry.Jobs().Canceled.Inc()
	}
	st := j.status()
	s.mu.Unlock()
	jal.PointJob(events.TypeAdmit, j.ID, 0)
	if evictedID != 0 {
		jal.PointJob(events.TypeEvict, evictedID, 0)
	}
	close(j.admitted)
	s.persist()
	s.kick()
	return st, nil
}

// Cancel stops a job: a queued job leaves the queue as Canceled; the
// running job's context is canceled — its sweep drains in-flight trials,
// flushes the shard tail, and the job lands Canceled with a durable,
// resumable prefix on disk. Terminal jobs are left alone.
func (s *Supervisor) Cancel(id int64) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("jobs: no job %d", id)
	}
	canceled := false
	switch j.State {
	case StateQueued:
		canceled = true
		if s.q.remove(id) != nil {
			j.State = StateCanceled
			telemetry.Jobs().Canceled.Inc()
		} else {
			// Raced the loop: popped and about to run. cancelRequested
			// makes runJob skip (or classify the interrupt as) Canceled.
			j.cancelRequested = true
		}
	case StateRunning:
		canceled = true
		j.cancelRequested = true
		if s.running == j && s.cancelRun != nil {
			s.cancelRun()
		}
	}
	st := j.status()
	s.mu.Unlock()
	if canceled {
		events.Active().PointJob(events.TypeCancel, id, 0)
	}
	s.persist()
	return st, nil
}

// Job returns one job's snapshot.
func (s *Supervisor) Job(id int64) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs returns every known job's snapshot in admission-sequence order —
// s.order, which persists through the manifest, so the listing is
// deterministic within a daemon's life and across its restarts (the seed's
// map-iteration listing shuffled per call).
func (s *Supervisor) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.status())
		}
	}
	return out
}

// Drain stops the supervisor gracefully: no further submissions, the
// running job's sweep drains and checkpoints, queued jobs stay queued, and
// the manifest persists everything recoverable. It returns when the loop
// has exited and the manifest is on disk (or ctx ends first).
func (s *Supervisor) Drain(ctx context.Context) error {
	start := time.Now()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	events.Active().Point(events.TypeDrain, events.NoTrial, 0, "")
	s.drain() // cancels the running attempt's context through baseCtx
	s.kick()
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.persist()
	telemetry.Jobs().DrainNs.Observe(uint64(time.Since(start).Nanoseconds()))
	return nil
}

// loop is the single execution slot: pop, run (with retries), repeat.
func (s *Supervisor) loop() {
	defer close(s.done)
	for {
		if s.baseCtx.Err() != nil {
			return
		}
		j := s.q.pop()
		if j == nil {
			select {
			case <-s.baseCtx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.runJob(j)
	}
}

// runJob executes one job's attempt loop: execute (always through the
// salvage path, so every attempt resumes whatever prefix is durable),
// classify by exit code, and either finish, checkpoint, retry under the
// backoff window, or trip the circuit breaker into quarantine.
func (s *Supervisor) runJob(j *Job) {
	m := telemetry.Jobs()
	w := s.opts.window()
	if w.Jitter > 0 && w.JitterSeed == 0 {
		// Key each job's jitter stream by its fingerprint so a fleet of
		// jobs retrying off one backend hiccup de-synchronizes
		// deterministically.
		w.JitterSeed = seedstream.Mix64(fnvOf(j.Fingerprint))
	}
	s.mu.Lock()
	if j.cancelRequested {
		// Canceled between pop and run.
		j.State = StateCanceled
		m.Canceled.Inc()
		s.mu.Unlock()
		s.persist()
		return
	}
	s.mu.Unlock()
	for {
		runCtx, cancel := context.WithCancel(s.baseCtx)
		s.mu.Lock()
		j.State = StateRunning
		s.running, s.cancelRun = j, cancel
		s.mu.Unlock()
		s.persist()

		m.Attempts.Inc()
		// Bracket the attempt in a job span and a durable journal export next
		// to the shard file. The export truncates per attempt — like the run
		// report, the persisted journal describes the attempt that produced
		// the current shard bytes, so its event counts reconcile exactly with
		// that report's counters.
		jal := events.Active()
		var exp *events.Export
		var jspan uint64
		if jal != nil {
			if j.admitted != nil {
				// The loop can pop a job before Submit has journaled its
				// admission; that point belongs to the live stream only.
				<-j.admitted
			}
			exp, _ = events.StartExport(jal, j.Spec.Out+".events.jsonl", j.ID)
			if j.Attempts > 0 {
				jal.PointJob(events.TypeRetry, j.ID, int64(j.Attempts))
			}
			jspan = jal.BeginJob(j.ID)
		}
		rep, err := s.execute(runCtx, j.Spec)
		cancel()
		code := cli.ExitCodeOf(err)

		// Classify the attempt, but publish the outcome only after its
		// journal is closed: a poller that sees the new state must find the
		// per-attempt events file complete on disk.
		s.mu.Lock()
		attempts := j.Attempts + 1
		var state State
		switch {
		case err == nil, code == cli.ExitTrial:
			// The run completed — quarantined trials are recorded outcomes,
			// not job failures; the shard file and report are whole.
			state = StateDone
			m.Completed.Inc()
		case code == cli.ExitInterrupt && j.cancelRequested:
			state = StateCanceled
			m.Canceled.Inc()
		case code == cli.ExitInterrupt:
			// A drain: the sweep flushed a durable prefix; the manifest
			// re-admits this job on restart and Execute resumes it.
			state = StateCheckpointed
			m.Checkpointed.Inc()
		case code == cli.ExitSink && attempts < s.opts.attempts():
			// Transient IO: back off and retry (below).
			state = StateQueued
		default:
			// Non-transient (reject, usage) or budget exhausted: quarantine.
			// The job's error and report stay inspectable; its output file
			// is untouched beyond the durable prefix.
			state = StateQuarantined
			m.Quarantined.Inc()
		}
		s.mu.Unlock()
		switch state {
		case StateCheckpointed:
			jal.PointJob(events.TypeCheckpoint, j.ID, 0)
		case StateQuarantined:
			jal.PointJob(events.TypeJobQuarantine, j.ID, 0)
		}
		jal.EndJob(jspan, string(state))
		_ = exp.Close()

		s.mu.Lock()
		s.running, s.cancelRun = nil, nil
		j.Attempts = attempts
		j.ExitCode = code
		j.Report = rep
		j.Err = ""
		if err != nil {
			j.Err = err.Error()
		}
		j.State = state
		s.mu.Unlock()
		s.persist()
		if state != StateQueued {
			return
		}

		// The delay is observable and abortable — a drain arriving mid-wait
		// checkpoints instead of holding shutdown hostage.
		d := w.Delay(attempts - 1)
		m.Retries.Inc()
		m.RetryDelayNs.Observe(uint64(d.Nanoseconds()))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-s.baseCtx.Done():
			t.Stop()
			jal.PointJob(events.TypeCheckpoint, j.ID, 0)
			s.mu.Lock()
			j.State = StateCheckpointed
			m.Checkpointed.Inc()
			s.mu.Unlock()
			s.persist()
			return
		}
	}
}

// execute runs one attempt through the seam, containing panics: a crash in
// the execution path becomes an error that quarantines the JOB — PR 6's
// per-trial panic quarantine already recovers automaton crashes inside a
// sweep; this is the outer shell for crashes in the plumbing itself.
func (s *Supervisor) execute(ctx context.Context, spec Spec) (rep *telemetry.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("jobs: job execution panicked: %v", r)
		}
	}()
	run := s.opts.Run
	if run == nil {
		run = Execute
	}
	return run(ctx, spec, s.opts.Info)
}

// fnvOf is spec fingerprint text folded to a seed (FNV-1a over the hex).
func fnvOf(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
