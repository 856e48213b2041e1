package experiments

import (
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// GuardRun wraps a work-item executor with the same crash isolation
// sim.Runner gives scenario trials: a panic inside the executor is
// recovered into an *engine.PanicError (stack on the struct, deterministic
// message) instead of killing the worker pool. Every path that executes
// registered executors — Experiment.Run and sweeprun's work-shard
// streaming — runs items through this guard.
func GuardRun(run WorkRunFunc) WorkRunFunc {
	return func(item sink.WorkItem) (out string, err error) {
		defer func() {
			if v := recover(); v != nil {
				out, err = "", engine.NewPanicError(v)
			}
		}()
		return run(item)
	}
}

// RunWithDeadline bounds one item's wall-clock time: the item runs on a
// watchdog goroutine and a run that outlives d is abandoned with a
// deterministic *sim.DeadlineError. Unlike scenario trials — whose round
// loop polls a stop flag and exits promptly — an arbitrary executor cannot
// be interrupted, so an abandoned item's goroutine keeps running (guarded,
// so even its eventual panic is contained) until it finishes on its own;
// the leak is bounded by one goroutine per deadlined item and is the
// documented price of deadlines over opaque functions. d <= 0 disables the
// watchdog.
func RunWithDeadline(run WorkRunFunc, d time.Duration) WorkRunFunc {
	if d <= 0 {
		return run
	}
	guarded := GuardRun(run)
	return func(item sink.WorkItem) (string, error) {
		type outcome struct {
			out string
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			out, err := guarded(item)
			ch <- outcome{out, err}
		}()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case o := <-ch:
			return o.out, o.err
		case <-timer.C:
			return "", &sim.DeadlineError{Timeout: d}
		}
	}
}
