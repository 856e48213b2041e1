package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// Sink wraps a result sink with counted and seeded Consume faults. The
// zero-configured wrapper is transparent; each fault engages independently.
// Counts are 1-based call numbers, so {FailEvery: 3} fails calls 3, 6, 9…
// and {StallAtCall: 5} stalls call 5 only. Not safe for concurrent use —
// the sweep layer's sink contract already guarantees sequential Consume.
type Sink struct {
	// Base receives the calls the injector lets through.
	Base sim.ResultSink

	// FailEvery, when positive, fails every k-th Consume before the record
	// reaches Base.
	FailEvery int
	// FailP, when positive, fails each Consume with this probability,
	// drawn deterministically from Seed.
	FailP float64
	// Seed seeds the FailP draw.
	Seed int64

	// StallAtCall, when positive, sleeps StallFor before that Consume —
	// a sink stuck past its caller's patience.
	StallAtCall int
	StallFor    time.Duration

	calls int
	rng   *rand.Rand
}

// Consume implements sim.ResultSink with the configured faults.
func (s *Sink) Consume(r sim.Result) error {
	s.calls++
	if s.StallAtCall > 0 && s.calls == s.StallAtCall {
		time.Sleep(s.StallFor)
	}
	if s.FailEvery > 0 && s.calls%s.FailEvery == 0 {
		return fmt.Errorf("chaos: injected failure on consume %d", s.calls)
	}
	if s.FailP > 0 {
		if s.rng == nil {
			s.rng = seedstream.NewV1(s.Seed)
		}
		if s.rng.Float64() < s.FailP {
			return fmt.Errorf("chaos: seeded failure on consume %d", s.calls)
		}
	}
	return s.Base.Consume(r)
}

// TornWriter passes writes through until Limit bytes, then truncates: the
// byte stream a process SIGKILLed mid-write leaves behind. The first write
// crossing the limit is cut exactly at it (the partial bytes ARE written —
// that is what makes the tail torn rather than clean) and every write from
// then on fails.
type TornWriter struct {
	W     io.Writer
	Limit int64

	written int64
}

// Write implements io.Writer.
func (t *TornWriter) Write(p []byte) (int, error) {
	remain := t.Limit - t.written
	if remain <= 0 {
		return 0, fmt.Errorf("chaos: writer torn at byte %d", t.Limit)
	}
	if int64(len(p)) > remain {
		n, err := t.W.Write(p[:remain])
		t.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("chaos: write torn at byte %d", t.Limit)
	}
	n, err := t.W.Write(p)
	t.written += int64(n)
	return n, err
}

// PanicProc is a drop-in automaton that panics in its Deliver at Round —
// the buggy-automaton fault the quarantine path recovers. Silent before
// that, it never decides.
type PanicProc struct {
	Round int
}

// Message implements model.Automaton.
func (p *PanicProc) Message(r int, cm model.CMAdvice) *model.Message { return nil }

// Deliver implements model.Automaton.
func (p *PanicProc) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, cm model.CMAdvice) {
	if r >= p.Round {
		panic(fmt.Sprintf("chaos: injected panic at round %d", p.Round))
	}
}

// Runaway is a drop-in automaton that never decides, so its trial runs the
// full round horizon — the runaway pipeline the TrialTimeout watchdog
// exists to stop.
type Runaway struct{}

// Message implements model.Automaton.
func (Runaway) Message(r int, cm model.CMAdvice) *model.Message { return nil }

// Deliver implements model.Automaton.
func (Runaway) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, cm model.CMAdvice) {}

// Exec matches experiments.WorkRunFunc (identical underlying type, so the
// wrappers below apply to registered executors without conversion
// ceremony).
type Exec func(item sink.WorkItem) (string, error)

// PanicItem panics when the executor reaches global item index `index`,
// passing every other item through.
func PanicItem(run Exec, index int) Exec {
	return func(item sink.WorkItem) (string, error) {
		if item.Index == index {
			panic(fmt.Sprintf("chaos: injected panic on item %d", index))
		}
		return run(item)
	}
}

// FailItem fails item `index` with an injected error.
func FailItem(run Exec, index int) Exec {
	return func(item sink.WorkItem) (string, error) {
		if item.Index == index {
			return "", fmt.Errorf("chaos: injected failure on item %d", index)
		}
		return run(item)
	}
}

// StallItem sleeps for d before running item `index` — a single slow item
// for deadline watchdogs to catch.
func StallItem(run Exec, index int, d time.Duration) Exec {
	return func(item sink.WorkItem) (string, error) {
		if item.Index == index {
			time.Sleep(d)
		}
		return run(item)
	}
}
