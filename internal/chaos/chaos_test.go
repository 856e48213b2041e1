package chaos

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// grid is a small healthy sweep; fault injection supplies the failures.
func grid(n int) []sim.Scenario {
	scs := make([]sim.Scenario, n)
	for i := range scs {
		scs[i] = sim.Scenario{
			Name:      "chaos/t",
			Algorithm: sim.AlgPropose,
			Values:    []model.Value{3, 7, 7, 1},
			Domain:    16,
			MaxRounds: 100,
			Trace:     engine.TraceDecisionsOnly,
			Seed:      sim.TrialSeed(13, 0, i),
		}
	}
	return scs
}

// TestUnretriedSinkFailureAbortsWithValidPrefix: without retry, the injected
// failure aborts the sweep through the SinkError path and the flushed bytes
// are a salvageable contiguous prefix.
func TestUnretriedSinkFailureAbortsWithValidPrefix(t *testing.T) {
	var buf bytes.Buffer
	j := sink.NewJSONL(&buf)
	err := (sim.Runner{Workers: 2}).SweepTo(grid(10), &Sink{Base: j, FailEvery: 4})
	var se *sim.SinkError
	if !errors.As(err, &se) {
		t.Fatalf("err %v, want SinkError", err)
	}
	j.Flush()
	recs, off, tail := sink.ReadRecordsPartial(&buf)
	if tail != nil || off < 0 {
		t.Fatalf("aborted sweep left a torn file: %v", tail)
	}
	if len(recs) != 3 { // consumes 1,2,3 delivered; consume 4 failed
		t.Fatalf("aborted sweep delivered %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("aborted prefix not contiguous: record %d has index %d", i, rec.Index)
		}
	}
}

// TestTornWriterProducesSalvageablePrefix: a writer cut at an awkward byte
// offset leaves exactly the torn shard file the salvage reader handles —
// the recovered records are a contiguous prefix of the sweep order.
func TestTornWriterProducesSalvageablePrefix(t *testing.T) {
	scs := grid(10)
	var whole bytes.Buffer
	j := sink.NewJSONL(&whole)
	if err := (sim.Runner{Workers: 1}).SweepTo(scs, j); err != nil {
		t.Fatal(err)
	}
	j.Flush()
	full := whole.Bytes()

	limit := int64(len(full)/2 + 7) // mid-record, nowhere near a line boundary
	var torn bytes.Buffer
	tw := &TornWriter{W: &torn, Limit: limit}
	jt := sink.NewJSONL(tw)
	(sim.Runner{Workers: 1}).SweepTo(scs, jt)
	jt.Flush() // the flush hits the limit; error intentionally ignored — the kill already happened

	if int64(torn.Len()) != limit {
		t.Fatalf("torn file is %d bytes, want %d", torn.Len(), limit)
	}
	recs, off, tail := sink.ReadRecordsPartial(bytes.NewReader(torn.Bytes()))
	if tail == nil {
		t.Fatal("torn file salvaged as clean")
	}
	if !bytes.Equal(torn.Bytes()[:off], full[:off]) {
		t.Fatal("salvaged prefix diverged from the uninterrupted stream")
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("salvaged record %d has index %d — not a contiguous prefix", i, rec.Index)
		}
	}
}

// TestInjectedAutomatonFaults: the drop-in automata drive the quarantine
// and watchdog paths.
func TestInjectedAutomatonFaults(t *testing.T) {
	scs := grid(4)
	scs[1].BuildProc = func(int, *sim.Scenario) model.Automaton { return &PanicProc{Round: 2} }
	scs[3].BuildProc = func(int, *sim.Scenario) model.Automaton { return Runaway{} }
	scs[3].MaxRounds = 1 << 30

	res, err := sim.Runner{Workers: 2, TrialTimeout: 30 * time.Millisecond}.Sweep(scs)
	var te *sim.TrialError
	if !errors.As(err, &te) || te.Index != 1 {
		t.Fatalf("first error %v, want the trial-1 panic", err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "chaos: injected panic") {
		t.Fatalf("panic not quarantined: %v", res[1].Err)
	}
	var de *sim.DeadlineError
	if res[3].Err == nil || !errors.As(res[3].Err, &de) {
		t.Fatalf("runaway not deadlined: %v", res[3].Err)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || !res[i].AllDecided {
			t.Fatalf("healthy trial %d contaminated: %+v", i, res[i])
		}
	}
}

// TestExecutorWrappers covers the work-item injectors.
func TestExecutorWrappers(t *testing.T) {
	base := func(item sink.WorkItem) (string, error) { return "ok=" + item.Params, nil }
	item := func(i int) sink.WorkItem { return sink.WorkItem{Kind: "k", Index: i, Params: "p"} }

	if out, err := PanicItemRecovered(PanicItem(base, 3), item(2)); err != nil || out != "ok=p" {
		t.Fatalf("PanicItem touched a healthy item: %q, %v", out, err)
	}
	if _, err := PanicItemRecovered(PanicItem(base, 3), item(3)); err == nil ||
		!strings.Contains(err.Error(), "panic: chaos: injected panic on item 3") {
		t.Fatalf("PanicItem panic not surfaced: %v", err)
	}

	if _, err := FailItem(base, 5)(item(5)); err == nil ||
		!strings.Contains(err.Error(), "chaos: injected failure on item 5") {
		t.Fatalf("FailItem error not surfaced: %v", err)
	}
	if out, err := FailItem(base, 5)(item(4)); err != nil || out != "ok=p" {
		t.Fatalf("FailItem touched a healthy item: %q, %v", out, err)
	}

	start := time.Now()
	if out, err := StallItem(base, 1, 20*time.Millisecond)(item(1)); err != nil || out != "ok=p" {
		t.Fatalf("StallItem broke the item: %q, %v", out, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("StallItem did not stall")
	}
}

// PanicItemRecovered runs one item with the quarantine-style recovery the
// experiment layer applies, so tests can assert on the surfaced error.
func PanicItemRecovered(run Exec, item sink.WorkItem) (out string, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = engine.NewPanicError(v)
		}
	}()
	return run(item)
}
