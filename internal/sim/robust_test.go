package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
)

// panicProc panics in Deliver at a fixed round.
type panicProc struct{ round int }

func (p *panicProc) Message(r int, cm model.CMAdvice) *model.Message { return nil }

func (p *panicProc) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, cm model.CMAdvice) {
	if r >= p.round {
		panic("panicProc: deliberate")
	}
}

// spinProc never decides, so its trial runs the full round horizon — the
// runaway pipeline the TrialTimeout watchdog exists for.
type spinProc struct{}

func (spinProc) Message(r int, cm model.CMAdvice) *model.Message                          { return nil }
func (spinProc) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, cm model.CMAdvice) {}

// quarantineGrid is a healthy grid with one trial hosting a panicking
// automaton.
func quarantineGrid(bombed int) []Scenario { return quarantineGridN(6, bombed) }

// quarantineGridN is quarantineGrid with n trials.
func quarantineGridN(n, bombed int) []Scenario {
	var scs []Scenario
	for i := 0; i < n; i++ {
		s := Scenario{
			Name:      "robust/q",
			Algorithm: AlgPropose,
			Values:    []model.Value{3, 7, 7, 1},
			Domain:    16,
			MaxRounds: 100,
			Trace:     engine.TraceDecisionsOnly,
			Seed:      TrialSeed(11, 0, i),
		}
		if i == bombed {
			s.BuildProc = func(i int, s *Scenario) model.Automaton {
				return &panicProc{round: 3}
			}
		}
		scs = append(scs, s)
	}
	return scs
}

// TestPanicQuarantinedAtAnyWorkerCount: a panicking trial becomes a Result
// with Err (stack captured, message deterministic) instead of killing the
// sweep, and every other trial's result is untouched — identically at 1, 4,
// and GOMAXPROCS workers.
func TestPanicQuarantinedAtAnyWorkerCount(t *testing.T) {
	const bombed = 2
	var base []Result
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Runner{Workers: w}.Sweep(quarantineGrid(bombed))
		var te *TrialError
		if !errors.As(err, &te) || te.Index != bombed {
			t.Fatalf("workers=%d: err %v, want TrialError for trial %d", w, err, bombed)
		}
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: quarantine did not preserve the PanicError: %v", w, err)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: panic stack not captured", w)
		}
		if got := res[bombed].Err.Error(); got != "panic: panicProc: deliberate" {
			t.Fatalf("workers=%d: quarantine message %q not deterministic", w, got)
		}
		for i, r := range res {
			if i != bombed && (r.Err != nil || !r.AllDecided) {
				t.Fatalf("workers=%d: healthy trial %d contaminated: %+v", w, i, r)
			}
		}
		if base == nil {
			base = res
			continue
		}
		for i := range base {
			if i == bombed {
				continue // Err values are distinct *PanicError allocations
			}
			if !equalResult(base[i], res[i]) {
				t.Fatalf("workers=%d diverged at trial %d", w, i)
			}
		}
	}
}

func equalResult(a, b Result) bool {
	if a.Index != b.Index || a.Name != b.Name || a.Seed != b.Seed ||
		a.Rounds != b.Rounds || a.AllDecided != b.AllDecided ||
		a.Decisions != b.Decisions || a.LastDecisionRound != b.LastDecisionRound ||
		a.AgreementOK != b.AgreementOK || a.ValidityOK != b.ValidityOK ||
		a.TerminationOK != b.TerminationOK || len(a.DecidedValues) != len(b.DecidedValues) {
		return false
	}
	for i := range a.DecidedValues {
		if a.DecidedValues[i] != b.DecidedValues[i] {
			return false
		}
	}
	return true
}

// TestTrialTimeout: a runaway trial is stopped at a round boundary and
// quarantined with the deterministic DeadlineError; healthy trials in the
// same sweep are unaffected.
func TestTrialTimeout(t *testing.T) {
	grid := quarantineGrid(-1)
	grid[4].BuildProc = func(int, *Scenario) model.Automaton { return spinProc{} }
	grid[4].MaxRounds = 1 << 30
	r := Runner{Workers: 2, TrialTimeout: 30 * time.Millisecond}
	res, err := r.Sweep(grid)
	var de *DeadlineError
	if !errors.As(err, &de) || de.Timeout != r.TrialTimeout {
		t.Fatalf("sweep error %v, want DeadlineError{30ms}", err)
	}
	if res[4].Err == nil || res[4].Err.Error() != "sim: trial exceeded its 30ms deadline" {
		t.Fatalf("deadline message not deterministic: %v", res[4].Err)
	}
	for i, r := range res {
		if i != 4 && r.Err != nil {
			t.Fatalf("healthy trial %d hit the watchdog: %v", i, r.Err)
		}
	}
}

// TestMapCtxCancellation: canceled workers stop claiming, in-flight calls
// finish, and the context error is reported — at one worker and several.
func TestMapCtxCancellation(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Runner{Workers: w}.MapCtx(ctx, 1000, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v, want context.Canceled", w, err)
		}
		n := ran.Load()
		if n < 5 || n >= 1000 {
			t.Fatalf("workers=%d: %d calls ran after cancellation at 5", w, n)
		}
	}
	// Uncanceled contexts change nothing.
	var ran atomic.Int64
	if err := (Runner{Workers: 4}).MapCtx(context.Background(), 100, func(int) { ran.Add(1) }); err != nil || ran.Load() != 100 {
		t.Fatalf("uncanceled MapCtx: err %v, %d calls", err, ran.Load())
	}
}

// cancelAfterSink cancels its context once it has consumed k results, and
// records anything delivered after that.
type cancelAfterSink struct {
	k      int
	cancel context.CancelFunc
	got    []Result
}

func (s *cancelAfterSink) Consume(r Result) error {
	s.got = append(s.got, r)
	if len(s.got) == s.k {
		s.cancel()
	}
	return nil
}

// TestSweepToCtxCancellation: a sink that cancels the sweep's context from
// Consume receives exactly the records up to that call — a contiguous
// prefix, however many trials the workers had already finished — and the
// sweep returns a CanceledError that classifies via errors.Is and reports
// the delivered count.
func TestSweepToCtxCancellation(t *testing.T) {
	grid := quarantineGrid(-1)
	for i := 0; i < 4; i++ { // enough trials that cancellation lands mid-sweep
		grid = append(grid, grid...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &cancelAfterSink{k: 8, cancel: cancel}
	err := Runner{Workers: 4}.SweepToCtx(ctx, grid, s)
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want CanceledError wrapping context.Canceled", err)
	}
	if ce.Total != len(grid) || ce.Done != s.k || len(s.got) != s.k {
		t.Fatalf("CanceledError{Done: %d, Total: %d} with %d delivered (grid %d), want exactly %d",
			ce.Done, ce.Total, len(s.got), len(grid), s.k)
	}
	for i, r := range s.got {
		if r.Index != i {
			t.Fatalf("delivered prefix not contiguous at %d: %+v", i, r)
		}
	}
}

// canceledSink accepts k results, then refuses the next with an error whose
// chain reaches context.Canceled — the shape a context-aware sink produces
// when a shutdown drain aborts its write.
type canceledSink struct {
	k   int
	got []Result
}

func (s *canceledSink) Consume(r Result) error {
	if len(s.got) == s.k {
		return fmt.Errorf("retry aborted mid-backoff: %w", context.Canceled)
	}
	s.got = append(s.got, r)
	return nil
}

// TestSweepToCanceledSinkClassifiesAsCancellation: a sink error that wraps
// context.Canceled classifies as a cooperative cancellation (*CanceledError
// with prefix accounting), not as a *SinkError — the delivered prefix is a
// valid resumable stream, exactly as if the sweep's own context had ended.
func TestSweepToCanceledSinkClassifiesAsCancellation(t *testing.T) {
	grid := quarantineGrid(-1)
	s := &canceledSink{k: 3}
	err := Runner{Workers: 2}.SweepTo(grid, s)
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want CanceledError wrapping context.Canceled", err)
	}
	var se *SinkError
	if errors.As(err, &se) {
		t.Fatalf("canceled sink misreported as an IO failure: %v", err)
	}
	if ce.Done != s.k || ce.Total != len(grid) {
		t.Fatalf("CanceledError{Done: %d, Total: %d}, want {%d, %d}", ce.Done, ce.Total, s.k, len(grid))
	}
	for i, r := range s.got {
		if r.Index != i {
			t.Fatalf("delivered prefix not contiguous at %d: %+v", i, r)
		}
	}
}

// TestScenarioStopFlag: an externally armed Stop flag aborts the trial with
// an error wrapping engine.ErrStopped (not a DeadlineError — no watchdog
// involved).
func TestScenarioStopFlag(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	s := quarantineGrid(-1)[0]
	s.Stop = &stop
	res, err := Runner{Workers: 1}.Sweep([]Scenario{s})
	if err == nil || !errors.Is(err, engine.ErrStopped) {
		t.Fatalf("pre-armed stop: err %v, want ErrStopped", err)
	}
	var de *DeadlineError
	if errors.As(err, &de) {
		t.Fatal("external stop misreported as a deadline")
	}
	if res[0].Err == nil {
		t.Fatalf("stopped trial has no Err: %+v", res[0])
	}
}
