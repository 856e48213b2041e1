package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/telemetry"
)

// Result is the digested outcome of one trial: everything the experiment
// tables and sweep aggregations read, without retaining the execution
// trace. Fields derive deterministically from the trial alone, so a Result
// slice is byte-identical regardless of how many workers produced it.
type Result struct {
	// Index is the trial's position in the executed scenario slice.
	Index int
	// Name echoes the scenario's Name.
	Name string
	// Seed echoes the scenario's seed.
	Seed int64

	// Rounds is the number of rounds executed.
	Rounds int
	// AllDecided reports whether every non-crashed process decided.
	AllDecided bool
	// Decisions is the number of processes that decided.
	Decisions int
	// DecidedValues is the sorted set of distinct decided values.
	DecidedValues []model.Value
	// LastDecisionRound is the latest round at which any process decided
	// (0 if none).
	LastDecisionRound int

	// AgreementOK, ValidityOK (strong validity), and TerminationOK report
	// the consensus property checks; TerminationOK exempts processes the
	// scenario's crash schedule names.
	AgreementOK   bool
	ValidityOK    bool
	TerminationOK bool

	// Err records a configuration or execution error; all other fields are
	// zero when it is set.
	Err error
}

// ConsensusOK reports whether the trial satisfied agreement, strong
// validity, and termination.
func (r Result) ConsensusOK() bool {
	return r.AgreementOK && r.ValidityOK && r.TerminationOK
}

// RunTrial executes one scenario and digests its outcome, discarding the
// underlying execution.
func RunTrial(index int, s Scenario) Result {
	r, _ := RunTrialFull(index, s)
	return r
}

// RunTrialFull executes one scenario and returns both the digested outcome
// and the underlying engine result — with whatever trace the scenario's
// mode recorded. The forensic replay path uses it to audit a fresh
// TraceFull execution against a recorded digest produced by this same
// digest logic; the engine result is nil when the trial errored.
func RunTrialFull(index int, s Scenario) (Result, *engine.Result) {
	res, err := Run(s)
	return digest(index, &s, res, err), res
}

// digest reduces a trial's engine result, or its error, to the Result.
func digest(index int, s *Scenario, res *engine.Result, err error) Result {
	if err != nil {
		return Result{Index: index, Name: s.Name, Seed: s.Seed, Err: err}
	}
	vals := res.Execution.DecidedValues()
	return Result{
		Index:             index,
		Name:              s.Name,
		Seed:              s.Seed,
		Rounds:            res.Rounds,
		AllDecided:        res.AllDecided,
		Decisions:         len(res.Decisions),
		DecidedValues:     vals,
		LastDecisionRound: res.Execution.LastDecisionRound(),
		AgreementOK:       len(vals) <= 1, // engine.CheckAgreement's rule
		ValidityOK:        engine.CheckStrongValidity(res) == nil,
		TerminationOK:     engine.CheckTermination(res, s.Crashes) == nil,
	}
}

// worker is the trial state one sweep goroutine owns for the whole sweep:
// the engine state it resets and the seeded components it reseeds for
// every trial it claims. A trial keeps nothing past its digest, so its
// Result equals RunTrial's.
type worker struct {
	state  engine.State
	seeded seeded
}

// trial runs one scenario on the worker's state and digests it. A full
// trace goes back to the arena pool once digested.
func (w *worker) trial(index int, s *Scenario) Result {
	var cfg engine.Config
	if err := s.materialize(&cfg, &w.seeded); err != nil {
		return digest(index, s, nil, err)
	}
	res, err := w.state.Run(cfg)
	out := digest(index, s, res, err)
	if res != nil {
		res.Execution.Release()
	}
	return out
}

// ResultSink consumes digested trial results as a sweep produces them.
// Runner.SweepTo delivers results strictly in ascending index order and
// never calls Consume concurrently, so implementations need no locking.
// internal/sink's buffered JSONL shard writer is the production
// implementation; a caller that needs results in memory uses Runner.Sweep.
type ResultSink interface {
	Consume(r Result) error
}

// Runner executes independent trials on a worker pool.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int

	// TrialTimeout, when positive, bounds each trial's wall-clock time. A
	// watchdog arms the scenario's Stop flag when the deadline passes; the
	// round loop notices at its next round boundary and the trial is
	// quarantined with a DeadlineError in Result.Err, exactly like any
	// other per-trial failure. The check costs one atomic load per round —
	// nothing on the per-delivery hot path — and only guards trials that
	// are engine runs (Map callers wrap their own work; see
	// experiments.RunWithDeadline for arbitrary functions).
	TrialTimeout time.Duration
}

// Map runs fn(0..n-1) across the pool and returns when all calls complete.
// fn must confine its effects to slot i of whatever it writes (the
// parallel-for contract); under that contract the combined output is
// independent of Workers. It is the generic entry point for trials that are
// not engine runs (lower-bound pipelines, multihop floods, substrates).
func (r Runner) Map(n int, fn func(i int)) {
	r.MapCtx(context.Background(), n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, workers
// stop claiming new indices, calls already in flight run to completion (at
// most one per worker), and MapCtx returns ctx's error. A nil return means
// every one of the n calls completed. fn itself is never interrupted — the
// parallel-for contract still holds for every index that ran.
func (r Runner) MapCtx(ctx context.Context, n int, fn func(i int)) error {
	return r.mapEach(ctx, n, func() func(i int) { return fn })
}

// mapEach is MapCtx over goroutine-owned state: each pool goroutine calls
// start once and runs every index it claims through the function start
// returned, so whatever that function closes over belongs to one goroutine
// for the whole map.
func (r Runner) mapEach(ctx context.Context, n int, start func() func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	var completed atomic.Int64
	if w <= 1 {
		fn := start()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			fn(i)
			completed.Add(1)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				fn := start()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
					completed.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	if int(completed.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// Sweep executes every scenario and returns the digested results in
// scenario order. The first per-trial error (by index) is also returned;
// the result slice is complete either way.
func (r Runner) Sweep(scenarios []Scenario) ([]Result, error) {
	results := make([]Result, len(scenarios))
	err := r.SweepTo(scenarios, sliceSink(results))
	return results, err
}

// sliceSink is the in-memory sink behind Sweep: results land in their slot.
type sliceSink []Result

func (s sliceSink) Consume(r Result) error {
	s[r.Index] = r
	return nil
}

// SweepTo executes every scenario on the worker pool and streams the
// digested results into sink in strict scenario order, without accumulating
// them: the sweep's memory footprint is the reorder window (bounded by the
// worker count's out-of-orderness), not the grid size. The stream delivered
// to the sink is byte-identical for any worker count. Results whose trial
// errored — including trials that panicked or overran TrialTimeout; both
// are recovered into Result.Err — are delivered too and do not stop the
// sweep; a sink Consume error does — remaining trials are skipped and a
// *SinkError is returned. Otherwise SweepTo returns the first per-trial
// error by index (a *TrialError), after all trials complete.
func (r Runner) SweepTo(scenarios []Scenario, sink ResultSink) error {
	return r.SweepToCtx(context.Background(), scenarios, sink)
}

// SweepToCtx is SweepTo with cooperative cancellation. Once ctx is done no
// further result reaches the sink: the sweep stops claiming trials, lets
// in-flight trials finish, and returns a *CanceledError wrapping ctx's
// error whose Done counts the results delivered — even if every trial had
// already finished. A sink that cancels ctx from inside Consume therefore
// sees exactly the records up to and including that call. The delivered
// prefix is exactly what an uninterrupted sweep would have produced for
// those indices, so a flushed JSONL shard remains valid for resume.
func (r Runner) SweepToCtx(ctx context.Context, scenarios []Scenario, sink ResultSink) error {
	return r.sweepScenarios(ctx, len(scenarios), func(i int) (int, *Scenario) { return i, &scenarios[i] }, sink)
}

// SweepTrialsTo is SweepTo over an indexed shard (see ShardScenarios): each
// trial's Result carries its global sweep index, and delivery order is the
// trials slice order — ascending global index for shards built by
// ShardScenarios, so concatenating the k shard streams sorted by index
// reproduces the unsharded stream byte for byte.
func (r Runner) SweepTrialsTo(trials []Trial, sink ResultSink) error {
	return r.SweepTrialsToCtx(context.Background(), trials, sink)
}

// SweepTrialsToCtx is SweepTrialsTo with the cancellation semantics of
// SweepToCtx.
func (r Runner) SweepTrialsToCtx(ctx context.Context, trials []Trial, sink ResultSink) error {
	return r.sweepScenarios(ctx, len(trials), func(i int) (int, *Scenario) { return trials[i].Index, &trials[i].Scenario }, sink)
}

// sweepScenarios runs trial i as scenario at(i) under its global index:
// each pool goroutine owns one worker for the whole sweep, and every trial
// runs guarded.
func (r Runner) sweepScenarios(ctx context.Context, n int, at func(i int) (int, *Scenario), sink ResultSink) error {
	return r.sweepEach(ctx, n, func() func(i int) Result {
		w := new(worker)
		return func(i int) Result {
			index, s := at(i)
			return r.guardedTrial(w, index, s)
		}
	}, sink)
}

// guardedTrial runs one scenario on w with the sweep's crash isolation: a
// panic anywhere inside the trial — an automaton, detector, adversary, or
// the engine itself, on the trial goroutine or re-raised from a delivery
// shard worker — is recovered into Result.Err as an *engine.PanicError. The
// error's message excludes the captured stack (which lives on the struct
// for forensics) so quarantine records serialize identically at any worker
// count; the worker's next trial resets everything the panic left behind.
// With TrialTimeout set, a watchdog timer arms the scenario's Stop flag at
// the deadline and the resulting engine abort is rewritten to a
// deterministic *DeadlineError.
func (r Runner) guardedTrial(w *worker, index int, s *Scenario) (res Result) {
	defer func() {
		if v := recover(); v != nil {
			res = Result{Index: index, Name: s.Name, Seed: s.Seed, Err: engine.NewPanicError(v)}
		}
	}()
	if r.TrialTimeout <= 0 {
		return w.trial(index, s)
	}
	timed := *s // the watchdog's Stop flag is this trial's alone
	stop := timed.Stop
	if stop == nil {
		stop = new(atomic.Bool)
		timed.Stop = stop
	}
	var expired atomic.Bool
	timer := time.AfterFunc(r.TrialTimeout, func() {
		expired.Store(true)
		stop.Store(true)
	})
	defer timer.Stop()
	res = w.trial(index, &timed)
	if res.Err != nil && expired.Load() && errors.Is(res.Err, engine.ErrStopped) {
		res.Err = &DeadlineError{Timeout: r.TrialTimeout}
	}
	return res
}

// SweepFuncToCtx is the one ordered-delivery loop under every sweep: it runs
// fn(0..n-1) on the pool and hands each Result to the sink in ascending slot
// order. Scenario sweeps reach it through SweepToCtx and SweepTrialsToCtx;
// callers whose trials are not engine runs (work-item pipelines) pass their
// own fn, which must recover its own panics and apply its own deadline —
// TrialTimeout guards only scenario trials. A mutex-guarded reorder window
// bridges out-of-order completion to the sink's strictly sequential
// contract; the sink is never called concurrently. A Consume error aborts
// the sweep: trials already in flight finish (at most one per worker),
// every other remaining trial is skipped, and a *SinkError is returned.
// Cancellation through ctx likewise drains in-flight trials, but delivery
// stops at the first record that finds ctx done, and a *CanceledError is
// returned. Per-trial errors (a non-nil Result.Err), by contrast, never stop
// the sweep — each trial is independent, and the caller gets the first one
// (by slot order, as a *TrialError) after all trials ran. A quarantined
// result is counted by cause and journaled once, when the sink accepts it.
func (r Runner) SweepFuncToCtx(ctx context.Context, n int, fn func(i int) Result, sink ResultSink) error {
	return r.sweepEach(ctx, n, func() func(i int) Result { return fn }, sink)
}

// sweepEach is SweepFuncToCtx over goroutine-owned state: each pool
// goroutine calls start once and runs the trials it claims through the
// function start returned (see mapEach).
func (r Runner) sweepEach(ctx context.Context, n int, start func() func(i int) Result, sink ResultSink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	buf := make([]Result, n)
	done := make([]bool, n)
	var (
		aborted   atomic.Bool
		mu        sync.Mutex
		next      int
		delivered int   // records the sink accepted (= next unless Consume failed)
		canceled  bool  // ctx was found done before delivering record next
		firstErr  error // first per-trial Err, by slot order
		sinkErr   error // first Consume error; aborts the sweep
		rawErr    error // that Consume error, unwrapped of the SinkError envelope
	)
	// Telemetry is read once here; every metric call below is a nil-receiver
	// no-op when disabled. The reorder-window occupancy high-water mark is
	// tracked in locals under the existing mutex and published once after the
	// sweep, so the hot path pays no extra atomics.
	tm := telemetry.Sim()
	doneCount, maxOcc := 0, 0
	// The event journal is likewise read once. Emission is per-trial at the
	// very finest — quarantine points — and trial progress is rate-limited
	// into batch spans of jal.BatchEvery() delivered trials, so journal
	// volume stays bounded and the record hot path is untouched. Batch state
	// lives under the reorder mutex, where delivery is already serial.
	jal := events.Active()
	var (
		batchSpan  uint64
		batchFirst int64
		batchN     int64
	)
	// collect runs trial i through the calling goroutine's fn and hands the
	// sink every result the reorder window can release.
	collect := func(i int, fn func(i int) Result) {
		if aborted.Load() {
			return
		}
		var start time.Time
		if tm.TrialWallNs != nil {
			start = time.Now()
		}
		res := fn(i)
		tm.Trials.Inc()
		if tm.TrialWallNs != nil {
			tm.TrialWallNs.Observe(uint64(time.Since(start)))
		}
		if res.Err == nil && res.AllDecided {
			tm.RoundsToDecide.Observe(uint64(res.LastDecisionRound))
		}
		mu.Lock()
		defer mu.Unlock()
		buf[i] = res
		done[i] = true
		doneCount++
		for next < n && done[next] && !canceled {
			// Checked per record, not per wake-up: one worker may drain the
			// whole reorder window in this loop, and a sink that cancels ctx
			// from Consume must not receive another record.
			if ctx.Err() != nil {
				canceled = true
				aborted.Store(true)
				break
			}
			out := buf[next]
			buf[next] = Result{} // release the trial's memory once delivered
			if jal != nil {
				if batchSpan == 0 {
					batchFirst, batchN = int64(out.Index), 0
					batchSpan = jal.BeginBatch(batchFirst)
				}
				batchN++
			}
			if out.Err != nil && firstErr == nil {
				firstErr = &TrialError{Index: out.Index, Name: out.Name, Err: out.Err}
			}
			if sinkErr == nil {
				if err := sink.Consume(out); err != nil {
					sinkErr = &SinkError{Err: err}
					rawErr = err
					aborted.Store(true)
				} else {
					delivered++
					if out.Err != nil {
						quarantineCounter(tm, out.Err).Inc()
						jal.Point(events.TypeQuarantine, int64(out.Index), 0, QuarantineCause(out.Err))
					}
				}
			}
			next++
			if jal != nil && batchN >= int64(jal.BatchEvery()) {
				jal.EndBatch(batchSpan, batchFirst, batchN)
				batchSpan, batchN = 0, 0
			}
		}
		if occ := doneCount - next; occ > maxOcc {
			maxOcc = occ
		}
	}
	ctxErr := r.mapEach(ctx, n, func() func(i int) {
		fn := start()
		return func(i int) { collect(i, fn) }
	})
	if batchSpan != 0 {
		jal.EndBatch(batchSpan, batchFirst, batchN)
	}
	tm.ReorderHighWater.Observe(int64(maxOcc))
	if sinkErr != nil {
		// A sink that refused a record BECAUSE a context ended (a caller's
		// sink that watches its own context and returns that context's
		// error from Consume, say during a shutdown drain) is a cooperative
		// cancellation, not an IO failure: the delivered prefix is exactly
		// what SweepToCtx's own cancellation leaves behind, so it
		// classifies the same way — CanceledError, resumable, exit code 5
		// rather than 3. The raw Consume error is wrapped (not the
		// SinkError envelope) so the result does NOT classify as an IO
		// failure, and Done counts only the records the sink actually
		// accepted — the refused record was never written.
		if errors.Is(rawErr, context.Canceled) || errors.Is(rawErr, context.DeadlineExceeded) {
			return &CanceledError{Done: delivered, Total: n, Err: rawErr}
		}
		return sinkErr
	}
	if ctxErr != nil || canceled {
		tm.Canceled.Add(uint64(n - doneCount))
		return &CanceledError{Done: delivered, Total: n, Err: ctx.Err()}
	}
	return firstErr
}

// quarantineCounter classifies a quarantined trial's error by cause for
// telemetry: automaton/component panics, trial-deadline overruns, and
// everything else (configuration or execution errors). The returned counter
// may be nil (telemetry disabled); Inc on a nil counter is a no-op.
func quarantineCounter(tm *telemetry.SimMetrics, err error) *telemetry.Counter {
	switch QuarantineCause(err) {
	case events.CausePanic:
		return tm.QuarantinePanic
	case events.CauseDeadline:
		return tm.QuarantineDeadline
	default:
		return tm.QuarantineOther
	}
}

// QuarantineCause names a quarantined trial's cause with the journal's
// constants — the single classification both the telemetry counters and
// the event stream report, so they always reconcile.
func QuarantineCause(err error) string {
	var pe *engine.PanicError
	var de *DeadlineError
	switch {
	case errors.As(err, &pe):
		return events.CausePanic
	case errors.As(err, &de):
		return events.CauseDeadline
	default:
		return events.CauseOther
	}
}
