package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validReport() *Report {
	return &Report{
		Schema:  ReportSchema,
		Command: "sweeprun run",
		Status:  StatusOK,
		WallNs:  12345,
		Trials: ReportTrials{
			Planned: 10, Salvaged: 4, Executed: 6,
		},
		Segments: []ReportSegment{
			{Name: "T3", Schedule: 1, Planned: 6, Salvaged: 4, Executed: 2, WallNs: 1000, RecordBytes: 321},
			{Name: "trials", Schedule: 2, Planned: 4, Executed: 4, WallNs: 2000},
		},
		Calibration: &ReportCalibration{Workers: 4, MinProcs: 64},
		Histograms: map[string]HistogramSnapshot{
			"sim.trial.wall_ns": {Count: 3, Sum: 30, Max: 16, Buckets: []HistogramBucket{{Le: 15, Count: 2}, {Le: 31, Count: 1}}},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := validReport()
	path := filepath.Join(t.TempDir(), "x.report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials != r.Trials || len(got.Segments) != 2 || got.Segments[0] != r.Segments[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReportValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"schema", func(r *Report) { r.Schema = 99 }, "schema 99"},
		{"status", func(r *Report) { r.Status = "fine" }, "unknown report status"},
		{"no-command", func(r *Report) { r.Command = "" }, "no command"},
		{"segment-overflow", func(r *Report) { r.Segments[0].Executed = 99 }, "salvaged"},
		{"totals", func(r *Report) { r.Trials.Executed = 5 }, "disagree"},
		{"quarantine-causes", func(r *Report) {
			r.Status = StatusTrialErrors
			r.Segments[1].Quarantined = 1
			r.Trials.Quarantined = ReportQuarantine{Total: 1, Panic: 0, Deadline: 0, Other: 0}
			r.Trials.Quarantined.Panic = 2
		}, "causes sum"},
		{"negative-cause", func(r *Report) {
			// Sums to the total, so only the sign check catches it.
			r.Status = StatusTrialErrors
			r.Segments[1].Quarantined = 1
			r.Trials.Quarantined = ReportQuarantine{Total: 1, Panic: 2, Other: -1}
		}, "negative quarantine cause"},
		{"negative-segment", func(r *Report) {
			r.Segments[0].Salvaged, r.Segments[0].Executed = -1, 7
			r.Trials.Salvaged, r.Trials.Executed = -1, 11
		}, "negative count"},
		{"ok-with-quarantine", func(r *Report) {
			r.Segments[1].Quarantined = 1
			r.Trials.Quarantined = ReportQuarantine{Total: 1, Other: 1}
		}, "status ok with"},
		{"ok-incomplete", func(r *Report) {
			r.Segments[1].Executed = 3
			r.Trials.Executed = 5
		}, "durable"},
		{"histogram", func(r *Report) {
			h := r.Histograms["sim.trial.wall_ns"]
			h.Count = 7
			r.Histograms["sim.trial.wall_ns"] = h
		}, "buckets sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			err := r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestReportInterruptedAllowsPartial(t *testing.T) {
	r := validReport()
	r.Status = StatusInterrupted
	r.Segments[1].Executed = 2
	r.Trials.Executed = 4
	if err := r.Validate(); err != nil {
		t.Fatalf("interrupted partial report rejected: %v", err)
	}
}

// TestReportZeroPlannedSegment: a segment that planned zero trials (an
// experiment whose grid degenerated, or a shard that owns no indices) is a
// legal report — zero planned/salvaged/executed/quarantined is internally
// consistent and survives the write/parse round trip.
func TestReportZeroPlannedSegment(t *testing.T) {
	r := validReport()
	r.Segments = append(r.Segments, ReportSegment{Name: "empty", Schedule: 2})
	if err := r.Validate(); err != nil {
		t.Fatalf("zero-planned segment rejected: %v", err)
	}
	path := filepath.Join(t.TempDir(), "zero.report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatalf("zero-planned segment did not round-trip: %v", err)
	}
	if len(got.Segments) != 3 || got.Segments[2] != r.Segments[2] {
		t.Fatalf("round trip mismatch: %+v", got.Segments)
	}

	// An entirely empty run — zero segments, zero totals — is likewise
	// valid with status ok: nothing was planned and nothing is missing.
	empty := &Report{Schema: ReportSchema, Command: "sweeprun run", Status: StatusOK}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty run rejected: %v", err)
	}
}

// TestReportFullyQuarantinedRun: a run where every executed trial
// quarantined still produces a schema-valid report (status trial-errors)
// that ParseReport round-trips — the worst chaos soak outcome is evidence,
// not a crash.
func TestReportFullyQuarantinedRun(t *testing.T) {
	r := &Report{
		Schema:  ReportSchema,
		Command: "sweeprun run",
		Status:  StatusTrialErrors,
		WallNs:  999,
		Trials: ReportTrials{
			Planned: 6, Executed: 6,
			Quarantined: ReportQuarantine{Total: 6, Panic: 4, Deadline: 1, Other: 1},
		},
		Segments: []ReportSegment{
			{Name: "T3", Schedule: 2, Planned: 6, Executed: 6, Quarantined: 6, WallNs: 999},
		},
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("fully quarantined run rejected: %v", err)
	}
	path := filepath.Join(t.TempDir(), "q.report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatalf("fully quarantined report did not round-trip: %v", err)
	}
	if got.Trials.Quarantined != r.Trials.Quarantined || got.Status != StatusTrialErrors {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte("not json")); err == nil {
		t.Fatal("garbage parsed")
	}
	b, _ := json.Marshal(map[string]any{"schema": 1})
	if _, err := ParseReport(b); err == nil {
		t.Fatal("empty report validated")
	}
}
