package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// TestGuardRun: executor panics become per-item errors with the stack
// preserved and a deterministic message; healthy items pass through.
func TestGuardRun(t *testing.T) {
	run := GuardRun(func(item sink.WorkItem) (string, error) {
		if item.Index == 1 {
			panic("executor exploded")
		}
		return "fine", nil
	})
	if out, err := run(sink.WorkItem{Index: 0}); err != nil || out != "fine" {
		t.Fatalf("healthy item: %q, %v", out, err)
	}
	out, err := run(sink.WorkItem{Index: 1})
	var pe *engine.PanicError
	if !errors.As(err, &pe) || out != "" {
		t.Fatalf("panic not guarded: %q, %v", out, err)
	}
	if err.Error() != "panic: executor exploded" {
		t.Fatalf("guard message %q not deterministic", err.Error())
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("guard lost the stack")
	}
}

// TestRunWithDeadline: a stalled item is abandoned with the deterministic
// deadline error; fast items (and panics inside the watchdog goroutine)
// report normally.
func TestRunWithDeadline(t *testing.T) {
	slow := func(item sink.WorkItem) (string, error) {
		if item.Index == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		if item.Index == 2 {
			panic("boom under watchdog")
		}
		return "done", nil
	}
	run := RunWithDeadline(slow, 25*time.Millisecond)
	if out, err := run(sink.WorkItem{Index: 0}); err != nil || out != "done" {
		t.Fatalf("fast item: %q, %v", out, err)
	}
	_, err := run(sink.WorkItem{Index: 1})
	var de *sim.DeadlineError
	if !errors.As(err, &de) || de.Timeout != 25*time.Millisecond {
		t.Fatalf("stalled item error %v, want DeadlineError{25ms}", err)
	}
	var pe *engine.PanicError
	if _, err := run(sink.WorkItem{Index: 2}); !errors.As(err, &pe) {
		t.Fatalf("watchdog goroutine panic not contained: %v", err)
	}
	// Disabled watchdog is the identity.
	if out, err := RunWithDeadline(slow, 0)(sink.WorkItem{Index: 0}); err != nil || out != "done" {
		t.Fatalf("disabled watchdog: %q, %v", out, err)
	}
}

// TestWorkExperimentRunGuards: a registered pipeline with a panicking
// executor fails with a contained error instead of crashing the pool.
func TestWorkExperimentRunGuards(t *testing.T) {
	e := Experiment{
		Name: "X",
		work: func() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
			items := []sink.WorkItem{{Kind: "x", Index: 0}, {Kind: "x", Index: 1}}
			run := func(item sink.WorkItem) (string, error) {
				if item.Index == 1 {
					panic("bad pipeline")
				}
				return "v=1", nil
			}
			render := func(outs []string) (*Table, error) { return &Table{}, nil }
			return items, run, render, nil
		},
	}
	_, err := e.Run(0)
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("pipeline panic escaped Run's guard: %v", err)
	}
}
