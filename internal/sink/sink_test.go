package sink

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
)

// testGrid is a small mixed grid with seeded loss, noise, and a crash
// schedule on odd trials — enough structure to make ordering or field
// mix-ups visible.
func testGrid() []sim.Scenario {
	var scs []sim.Scenario
	for i := 0; i < 10; i++ {
		s := sim.Scenario{
			Name:      "sink/trial",
			Algorithm: sim.AlgBitByBit,
			Detector:  detector.ZeroOAC,
			Race:      4,
			Values:    []model.Value{3, 7, 7, 1},
			Domain:    16,
			CM:        sim.CMWakeUp,
			Stable:    4,
			Loss:      sim.LossProbabilistic,
			LossP:     0.35,
			ECFRound:  4,
			MaxRounds: 500,
			Trace:     engine.TraceDecisionsOnly,
			Seed:      sim.TrialSeed(5, 0, i),
		}
		if i%2 == 1 {
			s.Crashes = model.Schedule{2: {Round: 3, Time: model.CrashAfterSend}}
		}
		scs = append(scs, s)
	}
	return scs
}

// TestJSONLRoundTrip is the subsystem's core contract: stream a sweep to
// JSONL, read it back, merge, and recover the exact result slice the
// in-memory sweep produces.
func TestJSONLRoundTrip(t *testing.T) {
	grid := testGrid()
	want, err := sim.Runner{Workers: 1}.Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Exp = "test"
	j.Params = func(i int) Params { return ParamsOf(grid[i]) }
	if err := (sim.Runner{Workers: 4}).SweepTo(grid, j); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(grid) {
		t.Fatalf("%d records for %d scenarios", len(recs), len(grid))
	}
	for i, rec := range recs {
		if rec.Exp != "test" || rec.Schema != Schema {
			t.Fatalf("record %d mislabeled: %+v", i, rec)
		}
		if rec.Params.Crashes == "" && i%2 == 1 {
			t.Fatalf("record %d lost its crash digest", i)
		}
	}
	got, err := Merge(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// failingWriter refuses every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestJSONLTally: the sink tallies the records it accepted, the quarantine
// records among them, and their bytes; a write it refuses counts nowhere,
// including the one that fills the buffer and fails part-way.
func TestJSONLTally(t *testing.T) {
	j := NewJSONL(failingWriter{}) // the buffer accepts lines until it fills
	var records, quarantined int
	var bytes uint64
	for i := 0; ; i++ {
		rec := Record{Exp: "tally", Index: i, Seed: int64(i)}
		if i%3 == 0 {
			rec.Err = "sim: trial exceeded its 1ns deadline"
		}
		if err := j.WriteRecord(rec); err != nil {
			break
		}
		records++
		if rec.Err != "" {
			quarantined++
		}
		rec.Schema = Schema
		bytes += uint64(len(appendRecord(nil, rec)))
	}
	if err := j.WriteRecord(Record{Exp: "tally", Err: "x"}); err == nil {
		t.Fatal("write after the failure succeeded")
	}
	if r, q, b := j.Tally(); r != records || q != quarantined || b != bytes || r == 0 {
		t.Fatalf("Tally = %d records, %d quarantined, %d bytes; accepted %d, %d, %d", r, q, b, records, quarantined, bytes)
	}
}

// TestEncoderMatchesEncodingJSON pins the hand-rolled encoder to the
// Record struct's json tags: every line must decode into the record that
// produced it, including escapes and omitted empties.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	recs := []Record{
		{Schema: Schema, Index: 0, Seed: -12345, Rounds: 7, AllDecided: true,
			Decisions: 3, DecidedValues: []uint64{1, 9}, LastDecisionRound: 7,
			AgreementOK: true, ValidityOK: true, TerminationOK: true,
			Exp: "T1", Fingerprint: "abc123", Name: `odd "name"\with escapes` + "\x01",
			Params: Params{Algorithm: "bitbybit", N: 4, Domain: 16, Detector: "0-◇AC",
				LossP: 0.35, Gor: true, Crashes: "p2@3a", Bespoke: "loss"}},
		{Schema: Schema, Index: 1, Seed: 0, Err: "engine: exploded"},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.Write(appendRecord(nil, rec))
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("%d lines for %d records", len(lines), len(recs))
	}
	if !strings.Contains(lines[0], `"goroutines":true`) {
		t.Fatalf("goroutines tag not recorded under its key: %s", lines[0])
	}
	for i, line := range lines {
		var got Record
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d does not decode: %v\n%s", i, err, line)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("line %d decoded differently:\n got %+v\nwant %+v", i, got, recs[i])
		}
	}
}

// TestRecordResultRoundTrip covers RecordOf/Result, including the error
// shape.
func TestRecordResultRoundTrip(t *testing.T) {
	ok := sim.Result{Index: 3, Name: "x", Seed: 9, Rounds: 12, AllDecided: true,
		Decisions: 4, DecidedValues: []model.Value{2}, LastDecisionRound: 11,
		AgreementOK: true, ValidityOK: true, TerminationOK: true}
	if got := RecordOf("e", Params{}, ok).Result(); !reflect.DeepEqual(got, ok) {
		t.Fatalf("ok round-trip: got %+v want %+v", got, ok)
	}
	bad := sim.Result{Index: 1, Name: "y", Seed: 2, Err: errors.New("boom")}
	got := RecordOf("e", Params{}, bad).Result()
	if got.Err == nil || got.Err.Error() != "boom" || got.Index != 1 || got.DecidedValues != nil {
		t.Fatalf("error round-trip: got %+v", got)
	}
}

// TestMergeGuards covers the completeness and overlap checks.
func TestMergeGuards(t *testing.T) {
	mk := func(indices ...int) []Record {
		recs := make([]Record, len(indices))
		for i, idx := range indices {
			recs[i] = Record{Schema: Schema, Index: idx}
		}
		return recs
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := Merge(mk(0, 2)); err == nil {
		t.Fatal("gap accepted")
	}
	if _, err := Merge(mk(0, 1, 1)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := Merge(mk(1, 2)); err == nil {
		t.Fatal("missing trial 0 accepted")
	}
	if res, err := Merge(mk(2, 0, 1)); err != nil || len(res) != 3 {
		t.Fatalf("out-of-order complete set rejected: %v", err)
	}
}

// TestReadRecordsRejectsUnknownSchema freezes the versioning contract.
func TestReadRecordsRejectsUnknownSchema(t *testing.T) {
	line := appendRecord(nil, Record{Schema: Schema + 1, Index: 0})
	if _, err := ReadRecords(bytes.NewReader(line)); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := ReadRecords(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if recs, err := ReadRecords(strings.NewReader("")); err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v, %d records", err, len(recs))
	}
}

// TestReadRecordsErrorPaths pins the reader's loud-failure contract: a
// truncated final record, a mixed-schema file, and a duplicate global trial
// index on merge each fail with a positioned error naming what went wrong.
func TestReadRecordsErrorPaths(t *testing.T) {
	line0 := appendRecord(nil, Record{Schema: Schema, Index: 0, Rounds: 3})
	line1 := appendRecord(nil, Record{Schema: Schema, Index: 1, Rounds: 5})

	// Truncated final record: a worker killed mid-flush leaves a line with
	// no newline terminator. Even when the surviving prefix happens to be
	// valid JSON (cut exactly after '}'), the reader must reject it.
	for _, cut := range []int{len(line1) - 1, len(line1) / 2} {
		stream := append(append([]byte(nil), line0...), line1[:cut]...)
		_, err := ReadRecords(bytes.NewReader(stream))
		if err == nil {
			t.Fatalf("truncated stream (cut at %d) accepted", cut)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("truncation error not positioned: %v", err)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation error does not say truncated: %v", err)
		}
	}

	// Mixed schema versions in one file: the foreign line is named.
	mixed := append(append([]byte(nil), line0...),
		appendRecord(nil, Record{Schema: Schema + 1, Index: 1})...)
	_, err := ReadRecords(bytes.NewReader(mixed))
	if err == nil {
		t.Fatal("mixed-schema file accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("mixed-schema error not positioned: %v", err)
	}

	// Duplicate global trial index on merge: the trial is named.
	dup := []Record{{Schema: Schema, Index: 0}, {Schema: Schema, Index: 1}, {Schema: Schema, Index: 1}}
	if _, err := Merge(dup); err == nil || !strings.Contains(err.Error(), "trial 1") {
		t.Fatalf("duplicate-index merge error not positioned: %v", err)
	}
}

// TestWorkItemRecords covers the v2 work-item surface: fingerprints depend
// on kind and params but not seed, RecordOfItem stamps provenance, and the
// hand-rolled encoder round-trips the new fields through encoding/json.
func TestWorkItemRecords(t *testing.T) {
	item := WorkItem{Kind: "theorem6", Index: 2, Seed: 7, Params: "alg=alg2 size=64"}
	same := item
	same.Seed = 99
	same.Index = 5
	if item.Fingerprint() != same.Fingerprint() {
		t.Fatal("work-item fingerprint depends on seed or index")
	}
	other := item
	other.Params = "alg=alg1 size=64"
	if item.Fingerprint() == other.Fingerprint() {
		t.Fatal("work-item fingerprint misses a parameter change")
	}
	otherKind := item
	otherKind.Kind = "theorem7"
	if item.Fingerprint() == otherKind.Fingerprint() {
		t.Fatal("work-item fingerprint misses a kind change")
	}

	rec := RecordOfItem("T6", item, "k=2 decided=false")
	if rec.Schema != Schema || rec.Exp != "T6" || rec.Index != 2 || rec.Seed != 7 ||
		rec.Item != "theorem6" || rec.ItemParams != item.Params ||
		rec.Out != "k=2 decided=false" || rec.Fingerprint != item.Fingerprint() {
		t.Fatalf("RecordOfItem = %+v", rec)
	}

	line := appendRecord(nil, rec)
	var got Record
	if err := json.Unmarshal(bytes.TrimRight(line, "\n"), &got); err != nil {
		t.Fatalf("work-item line does not decode: %v\n%s", err, line)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("work-item line decoded differently:\n got %+v\nwant %+v", got, rec)
	}
}

// TestParamsOf covers the scenario digest: defaults, crash digests, and
// bespoke factory flags.
func TestParamsOf(t *testing.T) {
	p := ParamsOf(testGrid()[1])
	if p.Algorithm != "bitbybit" || p.N != 4 || p.Domain != 16 ||
		p.Detector != detector.ZeroOAC.Name || p.CM != "wakeup" ||
		p.Loss != "prob" || p.Crashes != "p2@3a" || p.Trace != "decisions" {
		t.Fatalf("ParamsOf = %+v", p)
	}
	if ParamsOf(testGrid()[0]).Crashes != "" {
		t.Fatal("crash digest on crash-free scenario")
	}
	// Fingerprints: seed-independent, parameter-sensitive.
	a, b := testGrid()[0], testGrid()[2]
	if ParamsOf(a).Fingerprint() != ParamsOf(b).Fingerprint() {
		t.Fatal("fingerprint depends on the trial seed")
	}
	b.LossP = 0.5
	if ParamsOf(a).Fingerprint() == ParamsOf(b).Fingerprint() {
		t.Fatal("fingerprint misses a parameter change")
	}
	// Factory escape hatches flag as bespoke.
	c := testGrid()[0]
	c.BuildLoss = func(*sim.Scenario) loss.Adversary { return nil }
	if p := ParamsOf(c); p.Bespoke != "loss" {
		t.Fatalf("bespoke flags = %q, want \"loss\"", p.Bespoke)
	}
}

// TestJSONLConsumeSteadyStateAllocs is the perf contract of the streaming
// path: after warm-up, Consume allocates nothing — adding a JSONL sink to a
// sweep leaves the engine hot path's allocation profile untouched.
func TestJSONLConsumeSteadyStateAllocs(t *testing.T) {
	grid := testGrid()
	params := make([]Params, len(grid))
	for i, s := range grid {
		params[i] = ParamsOf(s)
	}
	j := NewJSONL(io.Discard)
	j.Exp = "alloc"
	j.Params = func(i int) Params { return params[i%len(params)] }
	res := sim.Result{
		Index: 0, Name: "sink/trial", Seed: 42, Rounds: 100, AllDecided: true,
		Decisions: 4, DecidedValues: []model.Value{3}, LastDecisionRound: 99,
		AgreementOK: true, ValidityOK: true, TerminationOK: true,
	}
	// Warm up scratch buffers and the fingerprint cache.
	for i := 0; i < len(params); i++ {
		res.Index = i
		if err := j.Consume(res); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res.Index = i % len(params)
		i++
		if err := j.Consume(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("JSONL.Consume allocates %.1f times per record in steady state, want 0", allocs)
	}
}
