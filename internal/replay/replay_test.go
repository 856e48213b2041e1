package replay

import (
	"os"
	"strings"
	"testing"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// gridRecords runs one grid experiment in-process and digests its results
// into records, exactly as a sharded run would have streamed them.
func gridRecords(t *testing.T, name string) (records []sink.Record, scenarios []sim.Scenario, table *experiments.Table) {
	t.Helper()
	e, ok := experiments.GridExperimentByName(name)
	if !ok {
		t.Fatalf("no grid experiment %s", name)
	}
	scenarios, render, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.Runner{Workers: 1}.Sweep(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	table, err = render(results)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		records = append(records, sink.RecordOf(name, sink.ParamsOf(scenarios[i]), res))
	}
	return records, scenarios, table
}

// TestRenderGridWithoutRerun is the render-without-rerun contract for grid
// experiments: records alone reproduce the in-process table byte for byte
// (the renderer never touches the engine — it only reads the merged result
// slice).
func TestRenderGridWithoutRerun(t *testing.T) {
	recs, _, want := gridRecords(t, "T8")
	got, err := RenderExperiment("T8", recs)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("replayed table diverged:\n--- replayed ---\n%s--- in-process ---\n%s", got, want)
	}
}

// TestRenderEveryExperimentWithoutRerun sweeps the whole registry: every
// grid experiment and every work experiment renders byte-identically from
// records alone. This is the subsystem's acceptance test; it is skipped in
// -short mode because it executes every grid once to produce the records.
func TestRenderEveryExperimentWithoutRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all experiments; skipped with -short")
	}
	for _, e := range experiments.GridExperiments() {
		recs, _, want := gridRecords(t, e.Name)
		got, err := RenderExperiment(e.Name, recs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s replay diverged:\n--- replayed ---\n%s--- in-process ---\n%s", e.Name, got, want)
		}
	}
	for _, e := range experiments.WorkExperiments() {
		recs, want := workRecords(t, e.Name)
		got, err := RenderExperiment(e.Name, recs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s replay diverged:\n--- replayed ---\n%s--- in-process ---\n%s", e.Name, got, want)
		}
	}
}

// workRecords runs one work experiment in-process into records.
func workRecords(t *testing.T, name string) (records []sink.Record, table *experiments.Table) {
	t.Helper()
	e, ok := experiments.WorkExperimentByName(name)
	if !ok {
		t.Fatalf("no work experiment %s", name)
	}
	items, runItem, render, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]string, len(items))
	for i, item := range items {
		out, err := runItem(item)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
		records = append(records, sink.RecordOfItem(name, item, out))
	}
	table, err = render(outs)
	if err != nil {
		t.Fatal(err)
	}
	return records, table
}

// TestRenderWorkWithoutRerun covers the bespoke side: recorded work-item
// outcomes reproduce the in-process table byte for byte. T9 exercises the
// impossibility constructions (detail strings with unicode and escapes).
func TestRenderWorkWithoutRerun(t *testing.T) {
	recs, want := workRecords(t, "T9")
	got, err := RenderExperiment("T9", recs)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("replayed work table diverged:\n--- replayed ---\n%s--- in-process ---\n%s", got, want)
	}
	if !got.Pass {
		t.Fatalf("T9 failed:\n%s", got)
	}
}

// TestMergeItemOutcomesGuards: the work-item merge must reject incomplete
// covers, duplicates, foreign item params, and reseeded items.
func TestMergeItemOutcomesGuards(t *testing.T) {
	recs, _ := workRecords(t, "T9")
	if _, err := RenderExperiment("T9", recs); err != nil {
		t.Fatalf("complete honest set rejected: %v", err)
	}
	if _, err := RenderExperiment("T9", recs[:len(recs)-1]); err == nil {
		t.Fatal("incomplete item cover accepted")
	}
	if _, err := RenderExperiment("T9", append(append([]sink.Record(nil), recs...), recs[0])); err == nil {
		t.Fatal("duplicate item accepted")
	}
	bad := append([]sink.Record(nil), recs...)
	bad[1].ItemParams = "case=tampered"
	if _, err := RenderExperiment("T9", bad); err == nil {
		t.Fatal("foreign item params accepted")
	}
	reseeded := append([]sink.Record(nil), recs...)
	reseeded[2].Seed++
	if _, err := RenderExperiment("T9", reseeded); err == nil {
		t.Fatal("reseeded item accepted")
	}
}

// TestFlagRecordsSelectors covers the record-level selectors on hand-built
// digests.
func TestFlagRecordsSelectors(t *testing.T) {
	recs := []sink.Record{
		{Index: 0, Rounds: 10, AllDecided: true, AgreementOK: true, ValidityOK: true, TerminationOK: true},
		{Index: 1, Rounds: 50, AllDecided: false, AgreementOK: true, ValidityOK: true},
		{Index: 2, Rounds: 50, AllDecided: true, AgreementOK: false, ValidityOK: true, TerminationOK: true},
		{Index: 3, Rounds: 7, AllDecided: true, AgreementOK: true, ValidityOK: true, TerminationOK: true, Err: "boom"},
	}
	flagged := FlagRecords(recs, Selector{Undecided: true, Violations: true, TopSlowest: 1})
	if len(flagged) != 2 {
		t.Fatalf("flagged %d records, want 2: %+v", len(flagged), flagged)
	}
	if flagged[0].Rec.Index != 1 || strings.Join(flagged[0].Reasons, ",") != "undecided,slowest" {
		t.Fatalf("record 1 flagged as %v", flagged[0].Reasons)
	}
	if flagged[1].Rec.Index != 2 || strings.Join(flagged[1].Reasons, ",") != "violation" {
		t.Fatalf("record 2 flagged as %v", flagged[1].Reasons)
	}
	if got := FlagRecords(recs, Selector{}); len(got) != 0 {
		t.Fatalf("zero selector flagged %d records", len(got))
	}
}

// TestReExecuteValidatesDigest is the forensic core: a recorded decision
// digest must verify against a fresh TraceFull run of the same seed, a
// tampered record must be caught with the exact diverging field, and the
// failed audit must carry a trace bundle.
func TestReExecuteValidatesDigest(t *testing.T) {
	recs, scenarios, _ := gridRecords(t, "T8")
	// T8's half-AC row records a genuine agreement violation: exactly the
	// record whose replayability the whole subsystem exists for.
	honest := recs[0].Result()
	if len(honest.DecidedValues) < 2 {
		t.Fatalf("T8 trial 0 should record an agreement violation, got values %v", honest.DecidedValues)
	}
	v := ReExecuteScenario(honest, scenarios[0], []string{"violation"}, false)
	if !v.OK() {
		t.Fatalf("honest record failed its audit: mismatch=%q traceErr=%q", v.Mismatch, v.TraceError)
	}
	if v.Bundle != "" {
		t.Fatal("clean audit rendered a bundle without being asked")
	}

	vb := ReExecuteScenario(honest, scenarios[0], []string{"violation"}, true)
	if vb.Bundle == "" || !strings.Contains(vb.Bundle, "trace bundle") {
		t.Fatalf("bundled audit missing its bundle: %q", vb.Bundle)
	}

	tampered := honest
	tampered.Rounds += 3
	v = ReExecuteScenario(tampered, scenarios[0], nil, false)
	if v.DigestOK {
		t.Fatal("tampered record passed its audit")
	}
	if !strings.Contains(v.Mismatch, "rounds") {
		t.Fatalf("mismatch %q does not name the diverging field", v.Mismatch)
	}
	if v.Bundle == "" {
		t.Fatal("failed audit carries no trace bundle")
	}
	if !v.TraceValid {
		t.Fatalf("fresh trace wrongly judged illegal: %s", v.TraceError)
	}
}

// TestVerifyExperimentFlow runs the whole verify pipeline over T8 records:
// the recorded violation is flagged, re-executed, and audited clean; a
// corrupted record is caught both by the recheck sweep and by its own
// audit.
func TestVerifyExperimentFlow(t *testing.T) {
	recs, _, _ := gridRecords(t, "T8")
	vs, err := VerifyExperiment("T8", recs, Selector{Violations: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Index != 0 {
		t.Fatalf("expected exactly the half-AC violation flagged, got %+v", vs)
	}
	if !vs[0].OK() {
		t.Fatalf("violation audit failed: mismatch=%q traceErr=%q", vs[0].Mismatch, vs[0].TraceError)
	}

	// Corrupt a record the violation selector would never flag: only the
	// recheck sweep can catch it.
	corrupted := append([]sink.Record(nil), recs...)
	corrupted[1].LastDecisionRound += 2
	vs, err = VerifyExperiment("T8", corrupted, Selector{Recheck: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Index != 1 {
		t.Fatalf("recheck should flag exactly trial 1, got %+v", vs)
	}
	if vs[0].DigestOK {
		t.Fatal("corrupted record passed its audit")
	}
	if strings.Join(vs[0].Reasons, ",") != "digest-mismatch" {
		t.Fatalf("reasons %v", vs[0].Reasons)
	}

	// Work experiments are not per-seed verifiable.
	if _, err := VerifyExperiment("T9", nil, Selector{}, false); err == nil {
		t.Fatal("work experiment accepted for per-seed verification")
	}
}

// TestVerifyExperimentRejectsForeignShards: the audit refuses to run over
// records that fail the merge-side guards, rather than "verifying" a
// foreign execution.
func TestVerifyExperimentRejectsForeignShards(t *testing.T) {
	recs, _, _ := gridRecords(t, "T8")
	foreign := append([]sink.Record(nil), recs...)
	foreign[0].Seed++
	if _, err := VerifyExperiment("T8", foreign, Selector{Violations: true}, false); err == nil {
		t.Fatal("reseeded record accepted for audit")
	}
	if _, err := VerifyExperiment("T8", recs[:1], Selector{Violations: true}, false); err == nil {
		t.Fatal("incomplete record set accepted for audit")
	}
}

// TestDigestDiffFields exercises every compared field.
func TestDigestDiffFields(t *testing.T) {
	base := sim.Result{
		Index: 3, Seed: 7, Rounds: 9, AllDecided: true, Decisions: 4,
		DecidedValues: []model.Value{1}, LastDecisionRound: 9,
		AgreementOK: true, ValidityOK: true, TerminationOK: true,
	}
	if d := DigestDiff(base, base); d != "" {
		t.Fatalf("identical digests diff: %s", d)
	}
	mut := base
	mut.DecidedValues = []model.Value{2}
	if d := DigestDiff(base, mut); !strings.Contains(d, "values") {
		t.Fatalf("value divergence not caught: %q", d)
	}
	mut = base
	mut.TerminationOK = false
	if d := DigestDiff(base, mut); !strings.Contains(d, "termination") {
		t.Fatalf("termination divergence not caught: %q", d)
	}
}

// TestLoadFilesAndGroup round-trips records through the JSONL writer and
// the loader.
func TestLoadFilesAndGroup(t *testing.T) {
	recs, _, _ := gridRecords(t, "T8")
	dir := t.TempDir()
	path := dir + "/t8.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := sink.NewJSONL(f)
	for _, rec := range recs {
		if err := j.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	run, err := LoadFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Order) != 1 || run.Order[0] != "T8" || len(run.Groups["T8"]) != len(recs) {
		t.Fatalf("loaded run %+v", run.Order)
	}
	if _, err := LoadFiles(dir + "/absent.jsonl"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestVerifierSteadyStateAllocations pins the satellite: auditing record
// after record reuses one arena via Execution.Release, so the per-audit
// allocation count does not grow with the trace length (the arena's columns
// are the only trace-proportional buffers a full-trace audit could
// allocate).
func TestVerifierSteadyStateAllocations(t *testing.T) {
	measure := func(rounds int) float64 {
		sc := sim.Scenario{
			Algorithm:      sim.AlgBitByBit,
			Values:         []model.Value{3, 7, 7, 1},
			Domain:         16,
			CM:             sim.CMWakeUp,
			ECFRound:       1,
			MaxRounds:      rounds,
			RunFullHorizon: true,
			Trace:          engine.TraceDecisionsOnly,
			Seed:           11,
		}
		recorded := sim.RunTrial(0, sc)
		if recorded.Err != nil {
			t.Fatal(recorded.Err)
		}
		audit := func() {
			if v := ReExecuteScenario(recorded, sc, nil, false); !v.OK() {
				t.Errorf("audit failed: %q %q", v.Mismatch, v.TraceError)
			}
		}
		audit() // warm the receive-set and arena pools
		audit()
		return testing.AllocsPerRun(20, audit)
	}
	short := measure(32)
	long := measure(544)
	if perRound := (long - short) / 512; perRound > 0.05 {
		t.Fatalf("audit steady state allocates %.2f objects/round (32-round audit %.0f, 544-round audit %.0f): arena not recycled",
			perRound, short, long)
	}
}
