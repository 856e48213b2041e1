package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/core"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// smokeScale runs every workload at about 1% of its size.
const smokeScale = 0.01

func loadSpec(t *testing.T) *BenchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testEnv(t *testing.T, seconds float64) *env {
	return &env{
		seed: 7, seconds: seconds, scale: smokeScale, nproc: runtime.NumCPU(),
		dir: t.TempDir(), traceFile: filepath.Join(t.TempDir(), "trace.jsonl"),
	}
}

func specNames(ms []MetricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func resultNames(r Result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSpecMatchesBenchmark pins BENCHMARK.json to the code: the same
// workloads, the same metrics with the same units, and bounds inside the
// limits the definition allows, setup_s holding the largest.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	for _, group := range []struct {
		spec []MetricSpec
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		units := map[string]string{}
		for _, d := range group.defs {
			units[d.name] = d.unit
		}
		if len(group.spec) != len(group.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, code defines %d", len(group.spec), len(group.defs))
		}
		for _, m := range group.spec {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s unit %q: code has %q (defined: %t)", m.Name, m.Unit, u, ok)
			}
		}
	}
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s's %g", m.Name, m.Bound, setup)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at about 1%
// of its scale through the benchmark's own code: every correctness check
// must pass, and the metrics emitted must be exactly the ones BENCHMARK.json
// names — end-to-end for the untraced run, per-layer for the traced one.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(testEnv(t, 0.01), w, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, specNames(spec.EndToEnd))

			e := testEnv(t, 1)
			res, err = measure(e, w, true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, specNames(spec.PerLayer))
			checkTraceFile(t, e.traceFile)
		})
	}
}

func checkResult(t *testing.T, res Result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if got := resultNames(res); !slices.Equal(got, want) {
		t.Errorf("metrics %v, BENCHMARK.json %v", got, want)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

// checkTraceFile checks that every span line parses and names its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var s struct {
			ID     *int64 `json:"id"`
			Parent *int64 `json:"parent"`
			Name   string `json:"name"`
			Trial  *int64 `json:"trial"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", lines+1, err)
		}
		if s.ID == nil || s.Parent == nil || s.Trial == nil || s.Name == "" || *s.Parent >= *s.ID || s.End < s.Start {
			t.Fatalf("span line %d incomplete: %s", lines+1, sc.Bytes())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no spans written")
	}
}

// TestTracedEquivalence checks the traced run's outputs against the same
// work done untraced — shard SHA-256, resumed files equal to the
// uninterrupted reference, Config.Replay verdicts, total rounds — and that
// each of those comparisons does catch a difference.
func TestTracedEquivalence(t *testing.T) {
	w, _ := workloadByName("sweep-small")
	e := testEnv(t, 1)
	res, err := runTraced(e, w)
	if err != nil || !res.Correct {
		t.Fatalf("traced run: correct=%t failed=%d: %v", res.Correct, res.Failed, err)
	}

	x := newTestRun(t, e, w)
	trials := x.trialsOf(8)
	// Trials seeded off the configuration's schedule write a different
	// shard, traced and untraced, than jobs.Execute does for the
	// configuration.
	for i := range trials {
		trials[i].Scenario.Seed++
	}
	results, err := x.sweep(trials)
	if err != nil {
		t.Fatal(err)
	}
	if x.failed != 2 {
		t.Errorf("shard comparison: %d mismatches, want 2", x.failed)
	}
	// A pass that ran different rounds is caught by the runner comparison.
	x = newTestRun(t, e, w)
	trials = x.trialsOf(8)
	results, err = x.sweep(trials)
	if err != nil || x.failed != 0 {
		t.Fatalf("sweep: %v, %d mismatches", err, x.failed)
	}
	results[0].Rounds++
	x.runner(trials, results)
	if x.failed != 3 {
		t.Errorf("runner comparison: %d mismatches, want 3", x.failed)
	}
	// A recorded digest the fresh run does not reproduce fails the replay.
	x = newTestRun(t, e, w)
	results[0].Rounds--
	results[0].LastDecisionRound++
	x.model(trials[:1], results)
	if x.failed != 1 {
		t.Errorf("replay comparison: %d mismatches, want 1", x.failed)
	}

	// A resumed file differing from the reference is rejected.
	path := filepath.Join(e.dir, "resumed.jsonl")
	args := w.shape.args(e.cfgSeed(0))
	in, err := prepareTorn(path, path+".ref", args, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{Trials: 40, Config: args, Workers: 1, Out: path}
	rep, err := jobs.Execute(context.Background(), spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st := jobs.Status{State: jobs.StateDone, Spec: spec, Report: rep}
	uninterrupted := in.ref
	in.ref = bytes.Replace(uninterrupted, []byte(`"i":39`), []byte(`"i":38`), 1)
	if _, err := checkResumed(newChecker(w.shape), st, in, e.cfgSeed(0), 40); err == nil {
		t.Error("a resumed file differing from the reference passed")
	}
	in.ref = uninterrupted
	if _, err := checkResumed(newChecker(w.shape), st, in, e.cfgSeed(0), 40); err != nil {
		t.Errorf("the resumed file equal to the reference failed: %v", err)
	}
}

func newTestRun(t *testing.T, e *env, w workload) *tracedRun {
	t.Helper()
	x, err := newTracedRun(e, w)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// silent is an automaton that never decides: no model.Decider.
type silent struct{}

func (silent) Message(int, model.CMAdvice) *model.Message                  { return nil }
func (silent) Deliver(int, *model.RecvSet, model.CDAdvice, model.CMAdvice) {}

// observing implements every optional contention-manager interface.
type observing struct{ cm.NoCM }

func (observing) Observe(int, int) {}

// TestWrappersForwardInterfaces checks that each wrapper implements the
// optional interfaces the engine looks for exactly when the wrapped
// component does; otherwise the traced engine would run another program.
func TestWrappersForwardInterfaces(t *testing.T) {
	domain, err := valueset.NewDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(newTracer(), 0, true, true)
	for _, a := range []model.Automaton{core.NewAlg1(3), core.NewAlg2(domain, 3), silent{}} {
		_, inner := a.(model.Decider)
		_, outer := wrapProc(a, p).(model.Decider)
		if inner != outer {
			t.Errorf("%T: Decider %t, wrapped %t", a, inner, outer)
		}
	}
	for _, s := range []cm.Service{cm.NoCM{}, cm.WakeUp{Stable: 2}, cm.NewLeaderElection(2), backoff.New(1), observing{}} {
		w := wrapCM(s, p)
		_, dense := s.(cm.DenseAdviser)
		_, wdense := w.(cm.DenseAdviser)
		_, obs := s.(cm.Observer)
		_, wobs := w.(cm.Observer)
		if dense != wdense || obs != wobs {
			t.Errorf("%T: DenseAdviser %t/%t, Observer %t/%t (inner/wrapped)", s, dense, wdense, obs, wobs)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, m, q3 := quartiles(c.in)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestOverSlicesIgnoresBurst checks that units slowed by a burst covering
// fewer than half the slices move neither a rate nor a percentile.
func TestOverSlicesIgnoresBurst(t *testing.T) {
	tl := &tally{}
	for i := range 90 {
		s := 1.0
		if i >= 60 { // the last three of nine slices
			s = 10
		}
		tl.done(unit{seconds: s, trials: 2, rounds: 6})
	}
	for name, c := range map[string]struct{ got, want float64 }{
		"trialRate": {tl.overSlices(trialRate), 2},
		"roundRate": {tl.overSlices(roundRate), 6},
		"p90":       {tl.overSlices(latency(90)), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s over slices = %g, want %g", name, c.got, c.want)
		}
	}
	// Fewer units than slices: one slice per unit.
	few := &tally{}
	for _, s := range []float64{3, 1, 2} {
		few.done(unit{seconds: s, trials: 1})
	}
	if got := few.overSlices(latency(50)); got != 2 {
		t.Errorf("median of three one-unit slices = %g, want 2", got)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"faster", base, scaled(1.2), "higher", improved},
		{"slower", base, scaled(0.85), "higher", regressed},
		{"more memory", base, scaled(1.15), "lower", regressed},
		{"unchanged", base, base, "higher", same},
		{"within bound but few pairs", base[:5], scaled(1.2)[:5], "higher", same},
		{"noisy", base, noisy, "higher", unresolved},
	} {
		if got := judge(c.a, c.b, c.better, 0.08); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareExitsOnRegression runs the compare subcommand on two results
// files.
func TestCompareExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		rf := ResultsFile{}
		for i := range 10 {
			rf.Rows = append(rf.Rows, Row{Workload: "sweep-small", Result: Result{
				Correct: true, Attempted: 1,
				Metrics: map[string]Metric{"trials_per_s": {Value: rate + float64(i%3), Unit: "1/s"}},
			}})
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 1000), write("b.json", 500), write("c.json", 1001)
	var out strings.Builder
	if code := run([]string{"compare", a, b}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), regressed) {
		t.Errorf("halved rate: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", a, c}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), same) {
		t.Errorf("equal rate: exit %d\n%s", code, out.String())
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "-seed", "2", "-trace"})
	want := []string{"--workload", "x", "-trace=false", "-seed", "2", "-trace"}
	if !slices.Equal(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}
