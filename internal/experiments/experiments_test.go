package experiments

import (
	"strings"
	"testing"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/valueset"
)

// runTable runs one experiment in-process on a pool of workers.
func runTable(t *testing.T, name string, workers int) *Table {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func mustDomain(t *testing.T, size uint64) valueset.Domain {
	t.Helper()
	d, err := valueset.NewDomain(size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAllExperimentsPass runs the full harness: every table must render and
// every experiment's internal checks must pass. This is the repository's
// single strongest regression test — it re-validates all paper claims.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped with -short")
	}
	exps := List()
	if len(exps) != 13 {
		t.Fatalf("got %d experiments, want 13", len(exps))
	}
	for _, e := range exps {
		table := runTable(t, e.Name, 0)
		if !table.Pass {
			t.Errorf("experiment failed:\n%s", table)
		}
		if len(table.Rows) == 0 {
			t.Errorf("experiment %q produced no rows", table.Title)
		}
	}
}

// TestT2TraceModeInvariant regenerates Theorem 1's table under forced
// TraceFull and forced TraceDecisionsOnly and requires byte-identical
// rendered output: skipping view recording must not change any measured
// number.
func TestT2TraceModeInvariant(t *testing.T) {
	restore := ForceTraceMode(engine.TraceFull)
	full := runTable(t, "T2", 0)
	restore()
	restore = ForceTraceMode(engine.TraceDecisionsOnly)
	dec := runTable(t, "T2", 0)
	restore()
	if !full.Pass || !dec.Pass {
		t.Fatalf("T2 failed: full=%v decisions-only=%v", full.Pass, dec.Pass)
	}
	if fs, ds := full.String(), dec.String(); fs != ds {
		t.Fatalf("trace mode changed T2's table:\n--- TraceFull ---\n%s\n--- TraceDecisionsOnly ---\n%s", fs, ds)
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   []Row{{Cells: []string{"1", "2"}}},
		Notes:  []string{"a note"},
		Pass:   true,
	}
	s := table.String()
	for _, want := range []string{"== demo ==", "long-column", "a note", "PASS=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestSpreadValuesWithinDomain(t *testing.T) {
	d := mustDomain(t, 16)
	vs := spreadValues(9, d)
	if len(vs) != 9 {
		t.Fatalf("got %d values", len(vs))
	}
	distinct := make(map[uint64]bool)
	for _, v := range vs {
		if uint64(v) >= d.Size {
			t.Fatalf("value %d outside domain", v)
		}
		distinct[uint64(v)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("spreadValues must produce at least two distinct values")
	}
}

func TestT8GapQuick(t *testing.T) {
	if table := runTable(t, "T8", 0); !table.Pass {
		t.Fatalf("T8 failed:\n%s", table)
	}
}

// TestTablesWorkerCountInvariant pins the sweep-refactor guarantee at the
// table level: rendered experiment output is byte-identical whether the
// scenario grid runs on 1 worker (the sequential path) or a pool. T3
// exercises seeded loss/noise; T4 crash schedules; T8 the partition
// adversary.
func TestTablesWorkerCountInvariant(t *testing.T) {
	for _, name := range []string{"T3", "T4", "T8"} {
		one, four := runTable(t, name, 1), runTable(t, name, 4)
		if os, fs := one.String(), four.String(); os != fs {
			t.Fatalf("%s differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", name, os, fs)
		}
	}
}

// TestForceTraceModeRaceSafety hammers the trace-mode hook concurrently
// with table generation; run under -race this proves the hook's atomic
// storage (the old plain pointer was a data race once grids went parallel).
func TestForceTraceModeRaceSafety(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			restore := ForceTraceMode(engine.TraceFull)
			restore()
		}
	}()
	for i := 0; i < 5; i++ {
		runTable(t, "T8", 4)
	}
	<-done
}
