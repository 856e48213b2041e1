package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReportSchema versions the run-report document. Readers reject versions
// they do not understand rather than misinterpreting fields.
const ReportSchema = 1

// Report statuses.
const (
	// StatusOK: every planned trial is durable.
	StatusOK = "ok"
	// StatusTrialErrors: the run completed but quarantined per-trial
	// errors (sweeprun exit code 2).
	StatusTrialErrors = "trial-errors"
	// StatusInterrupted: a cooperative interrupt drained the run early; the
	// output holds a valid resumable prefix (exit code 5).
	StatusInterrupted = "interrupted"
	// StatusAborted: a sink/IO failure stopped the stream (exit code 3).
	StatusAborted = "aborted"
)

// Report is the machine-readable per-run record sweeprun writes next to a
// shard file (<out>.report.json): the per-run counterpart of the committed
// BENCH_*.json snapshots. Where the JSONL stream records WHAT each trial
// decided, the report records how the run behaved — timing breakdown,
// latency and decision-round histograms, seed-schedule and calibration
// provenance, quarantine summary — so per-run performance evidence is a
// build artifact instead of a hand-curated note.
type Report struct {
	Schema  int    `json:"schema"`
	Command string `json:"command"`
	Status  string `json:"status"`
	// Generated is a human timestamp (RFC 3339). It is provenance, not
	// identity: reports are per-run evidence and are not byte-golden.
	Generated string `json:"generated,omitempty"`
	// WallNs is the whole invocation's wall time.
	WallNs int64 `json:"wall_ns"`

	Trials   ReportTrials    `json:"trials"`
	Segments []ReportSegment `json:"segments"`
	// Calibration republishes engine.Calibrate's numbers for the host that
	// ran the sweep.
	Calibration *ReportCalibration `json:"calibration,omitempty"`
	// Histograms carries the run's latency and decision-round
	// distributions under their metric names.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Metrics is the full registry snapshot at run end.
	Metrics map[string]any `json:"metrics,omitempty"`
}

// ReportTrials summarizes the run's trial accounting.
type ReportTrials struct {
	// Planned is the invocation's total trial count across segments;
	// Salvaged were already durable from a resumed file; Executed ran in
	// this invocation.
	Planned  int `json:"planned"`
	Salvaged int `json:"salvaged"`
	Executed int `json:"executed"`
	// Quarantined splits this invocation's per-trial errors by cause.
	Quarantined ReportQuarantine `json:"quarantined"`
}

// ReportQuarantine is the by-cause quarantine summary.
type ReportQuarantine struct {
	Total    int `json:"total"`
	Panic    int `json:"panic"`
	Deadline int `json:"deadline"`
	Other    int `json:"other"`
}

// ReportSegment is one experiment's (or the configuration sweep's)
// contribution to the run.
type ReportSegment struct {
	Name string `json:"name"`
	// Schedule is the segment's seed-schedule version.
	Schedule int `json:"schedule"`
	Planned  int `json:"planned"`
	Salvaged int `json:"salvaged"`
	Executed int `json:"executed"`
	// Quarantined counts this segment's error records among Executed.
	Quarantined int `json:"quarantined"`
	// WallNs is the segment's wall time; RecordBytes the bytes its fresh
	// records added to the stream.
	WallNs      int64  `json:"wall_ns"`
	RecordBytes uint64 `json:"record_bytes"`
}

// ReportCalibration mirrors engine.Calibration.
type ReportCalibration struct {
	Workers   int     `json:"workers"`
	MinProcs  int     `json:"minprocs"`
	BarrierNs float64 `json:"barrier_ns"`
	StepNs    float64 `json:"step_ns"`
}

// validStatuses is the closed status vocabulary.
var validStatuses = map[string]bool{
	StatusOK:          true,
	StatusTrialErrors: true,
	StatusInterrupted: true,
	StatusAborted:     true,
}

// ParseReport decodes and validates a report document: schema version,
// status vocabulary, segment/total accounting consistency, and histogram
// internal consistency. It is the schema check the CI smoke and `sweeprun
// report` run against every emitted report.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("telemetry: report does not parse: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the report's invariants.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("telemetry: report schema %d, this build reads schema %d", r.Schema, ReportSchema)
	}
	if r.Command == "" {
		return fmt.Errorf("telemetry: report has no command")
	}
	if !validStatuses[r.Status] {
		return fmt.Errorf("telemetry: unknown report status %q", r.Status)
	}
	if r.WallNs < 0 {
		return fmt.Errorf("telemetry: negative wall_ns %d", r.WallNs)
	}
	var planned, salvaged, executed, quarantined int
	for i, s := range r.Segments {
		if s.Name == "" {
			return fmt.Errorf("telemetry: segment %d has no name", i)
		}
		if min(s.Planned, s.Salvaged, s.Executed, s.Quarantined) < 0 {
			return fmt.Errorf("telemetry: segment %s has a negative count (%d/%d/%d/%d planned/salvaged/executed/quarantined)",
				s.Name, s.Planned, s.Salvaged, s.Executed, s.Quarantined)
		}
		if s.Salvaged+s.Executed > s.Planned {
			return fmt.Errorf("telemetry: segment %s accounts %d salvaged + %d executed > %d planned",
				s.Name, s.Salvaged, s.Executed, s.Planned)
		}
		if s.Quarantined > s.Executed {
			return fmt.Errorf("telemetry: segment %s quarantined %d > executed %d", s.Name, s.Quarantined, s.Executed)
		}
		planned += s.Planned
		salvaged += s.Salvaged
		executed += s.Executed
		quarantined += s.Quarantined
	}
	t := r.Trials
	if t.Planned != planned || t.Salvaged != salvaged || t.Executed != executed {
		return fmt.Errorf("telemetry: trial totals (%d/%d/%d planned/salvaged/executed) disagree with segment sums (%d/%d/%d)",
			t.Planned, t.Salvaged, t.Executed, planned, salvaged, executed)
	}
	if t.Quarantined.Total != quarantined {
		return fmt.Errorf("telemetry: quarantine total %d disagrees with segment sum %d", t.Quarantined.Total, quarantined)
	}
	if q := t.Quarantined; min(q.Panic, q.Deadline, q.Other) < 0 {
		return fmt.Errorf("telemetry: negative quarantine cause count (panic %d, deadline %d, other %d)", q.Panic, q.Deadline, q.Other)
	}
	if sum := t.Quarantined.Panic + t.Quarantined.Deadline + t.Quarantined.Other; sum != t.Quarantined.Total {
		return fmt.Errorf("telemetry: quarantine causes sum to %d, total is %d", sum, t.Quarantined.Total)
	}
	if r.Status == StatusOK {
		if t.Salvaged+t.Executed != t.Planned {
			return fmt.Errorf("telemetry: status ok but %d of %d trials durable", t.Salvaged+t.Executed, t.Planned)
		}
		if t.Quarantined.Total != 0 {
			return fmt.Errorf("telemetry: status ok with %d quarantined trial(s)", t.Quarantined.Total)
		}
	}
	for name, h := range r.Histograms {
		var n uint64
		for _, b := range h.Buckets {
			n += b.Count
		}
		if n != h.Count {
			return fmt.Errorf("telemetry: histogram %s buckets sum to %d, count is %d", name, n, h.Count)
		}
	}
	return nil
}

// WriteFile marshals the report (indented, trailing newline) to path.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
