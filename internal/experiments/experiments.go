// Package experiments regenerates every table and figure of the paper's
// evaluation, as indexed in DESIGN.md and recorded in EXPERIMENTS.md. Each
// experiment returns structured rows plus a formatted table, so the same
// code backs cmd/benchtab (human output), bench_test.go (testing.B
// integration), and the assertions in this package's own tests.
//
// The paper is a theory paper: its "tables" are the solvability/complexity
// matrix of §1.5 and Figure 1, the termination bounds of Theorems 1–3, the
// non-anonymous min{lg|V|, lg|I|} result, and the lower-bound theorems. The
// experiments measure all of them on the simulator and check the SHAPE the
// paper predicts (who wins, by what growth rate, where the crossover falls).
//
// Every experiment is declared once, in the registry (List, ByName), as
// exactly one of two kinds: a scenario grid, which declares its runs as
// []sim.Scenario up front, or a work pipeline, which declares serializable
// work items. Either kind runs in-process on a worker pool of the caller's
// size (Experiment.Run), or shards through cmd/sweeprun and renders back
// from the records. Trials are independently seeded, so tables are
// byte-identical regardless of the worker count.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/valueset"
)

// Row is one line of an experiment table.
type Row struct {
	Cells []string
}

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   []Row
	Notes  []string
	// Pass aggregates the experiment's internal checks (bounds respected,
	// expected violations observed, ...).
	Pass bool
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r.Cells {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r.Cells)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "PASS=%v\n", t.Pass)
	return b.String()
}

// spreadValues produces n initial values spread across the domain,
// guaranteeing at least two distinct values when the domain allows.
func spreadValues(n int, domain valueset.Domain) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(uint64(i*7919+1) % domain.Size)
	}
	return out
}

// forcedTrace, when >= 0, overrides the trace mode of every grid scenario.
// Tests use it to prove experiment tables are trace-mode-invariant. The
// value is atomic so a forced run can overlap a concurrent reader without a
// race (the grids themselves read it once, before fan-out).
var forcedTrace atomic.Int32

func init() { forcedTrace.Store(-1) }

// ForceTraceMode overrides the trace mode of all subsequent experiment
// runs and returns a func restoring the previous behavior. Test-only hook:
// decision-derived tables must be byte-identical under both modes.
func ForceTraceMode(m engine.TraceMode) (restore func()) {
	old := forcedTrace.Swap(int32(m))
	return func() { forcedTrace.Store(old) }
}

// baseScenario is the experiment-default environment: no contention
// manager, no ECF, a 20k-round horizon, and decisions-only recording (no
// current experiment inspects per-round views). Experiments override
// per-scenario fields from here.
func baseScenario() sim.Scenario {
	return sim.Scenario{
		CM:        sim.CMNone,
		ECFRound:  sim.NoECF,
		MaxRounds: 20000,
		Trace:     engine.TraceDecisionsOnly,
	}
}

// applyForcedTrace applies the test-only trace override to a grid in place.
func applyForcedTrace(scenarios []sim.Scenario) {
	if f := forcedTrace.Load(); f >= 0 {
		for i := range scenarios {
			scenarios[i].Trace = engine.TraceMode(f)
		}
	}
}

// RenderFunc turns the digested results of an experiment's scenario grid
// into its rendered table. Renderers are pure functions of the result
// slice, so the same renderer serves the in-process sweep and results
// merged back from sharded JSONL files (cmd/sweeprun).
type RenderFunc func([]sim.Result) (*Table, error)

// Experiment is one table of the paper's evaluation: its ID and exactly
// one of a scenario-grid build and a work-pipeline build.
type Experiment struct {
	// Name is the table's short ID.
	Name string
	grid func() ([]sim.Scenario, RenderFunc, error)
	work func() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error)
}

// registry declares every experiment, in table order.
var registry = []Experiment{
	{Name: "T1", grid: t1Build},
	{Name: "T2", grid: t2Build},
	{Name: "T3", grid: t3Build},
	{Name: "T4", grid: t4Build},
	{Name: "T5", grid: t5Build},
	{Name: "T6", work: t6WorkBuild},
	{Name: "T7", work: t7WorkBuild},
	{Name: "T8", grid: t8Build},
	{Name: "T9", work: t9WorkBuild},
	{Name: "A1", grid: a1Build},
	{Name: "A2", grid: a2Build},
	{Name: "A3", work: a3WorkBuild},
	{Name: "M1", work: m1WorkBuild},
}

// List returns every experiment in table order.
func List() []Experiment { return slices.Clone(registry) }

// Names lists every experiment's ID in table order, for help texts and
// errors.
func Names() string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.Name
	}
	return strings.Join(ids, ", ")
}

// ByName resolves an experiment by its (case-exact) ID.
func ByName(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("no experiment %q in this build (%s)", name, Names())
}

// Grid returns the experiment as a scenario grid, false for a work
// pipeline.
func (e Experiment) Grid() (GridExperiment, bool) {
	return GridExperiment{Name: e.Name, build: e.grid}, e.grid != nil
}

// Work returns the experiment as a work pipeline, false for a scenario
// grid.
func (e Experiment) Work() (WorkExperiment, bool) {
	return WorkExperiment{Name: e.Name, build: e.work}, e.work != nil
}

// Run executes the experiment in-process on a pool of workers (0 or
// negative: GOMAXPROCS) and renders its table.
func (e Experiment) Run(workers int) (*Table, error) {
	if g, ok := e.Grid(); ok {
		return g.run(workers)
	}
	w, _ := e.Work()
	return w.run(workers)
}

// GridExperiment is an experiment whose trials are exactly a declarative
// scenario grid: it can be built (grid + renderer) without running, which
// is what lets cmd/sweeprun shard the grid across machines and fold the
// shard files back into the identical table. The bespoke pipelines (the
// lower-bound constructions, the A3 substrates, the M1 multihop floods)
// are the other kind, WorkExperiment, which shards and replays as work
// items.
type GridExperiment struct {
	// Name is the table's short ID.
	Name  string
	build func() ([]sim.Scenario, RenderFunc, error)
}

// Build returns the expanded scenario grid — with the test-only trace
// override applied, exactly as the in-process path applies it — and the
// renderer that folds the grid's results into the table.
func (e GridExperiment) Build() ([]sim.Scenario, RenderFunc, error) {
	scenarios, render, err := e.build()
	if err != nil {
		return nil, nil, err
	}
	applyForcedTrace(scenarios)
	return scenarios, render, nil
}

// run executes the whole grid in-process on a pool of workers and renders
// the table.
func (e GridExperiment) run(workers int) (*Table, error) {
	scenarios, render, err := e.Build()
	if err != nil {
		return nil, err
	}
	results, err := sim.Runner{Workers: workers}.Sweep(scenarios)
	if err != nil {
		return nil, err
	}
	return render(results)
}

// probLoss returns a factory for a seeded probabilistic adversary. The
// adversary is constructed inside the trial, so concurrent trials never
// share its generator.
func probLoss(p float64, seed int64) func(*sim.Scenario) loss.Adversary {
	return func(*sim.Scenario) loss.Adversary { return loss.NewProbabilistic(p, seed) }
}

// captureLoss returns a factory for a seeded capture-effect adversary.
func captureLoss(pNone, pLoneLoss float64, seed int64) func(*sim.Scenario) loss.Adversary {
	return func(*sim.Scenario) loss.Adversary { return loss.NewCapture(pNone, pLoneLoss, seed) }
}

// partitionLoss returns a factory for a partition adversary. Partition is
// a stateless value type, so handing each trial its own copy satisfies the
// BuildLoss freshness contract; the parameter is deliberately typed
// loss.Partition (not loss.Adversary) so a stateful adversary with shared
// scratch cannot be routed through here by mistake.
func partitionLoss(p loss.Partition) func(*sim.Scenario) loss.Adversary {
	return func(*sim.Scenario) loss.Adversary { return p }
}

// noisyDetector returns a factory for a seeded false-positive behavior.
func noisyDetector(p float64, seed int64) func(*sim.Scenario) detector.Behavior {
	return func(*sim.Scenario) detector.Behavior { return detector.Noisy{P: p, Rng: seedstream.NewV1(seed)} }
}

// minimalDetector is the factory for the adversarially quiet behavior.
func minimalDetector(*sim.Scenario) detector.Behavior { return detector.Minimal{} }

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
