package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// TestSegmentEndCountsWithoutTelemetry: a journaled segment.end carries the
// segment's executed count even when nothing enables telemetry (-report
// none, no progress, no endpoint), because the count is the segment sink's
// own tally, not a delta of the process-wide sink counters. This file sorts
// first in the package, so the run sees telemetry still disabled unless the
// test binary ran something else before it.
func TestSegmentEndCountsWithoutTelemetry(t *testing.T) {
	shard := filepath.Join(t.TempDir(), "trials.jsonl")
	if err := runCLI([]string{"run", "-events", "-report", "none", "-trials", "500", "-quiet", "-o", shard}, io.Discard); err != nil {
		t.Fatal(err)
	}
	evs, err := events.ReadEventsFile(shard + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, e := range evs {
		if e.Type == "segment.end" {
			ends = append(ends, e.N)
		}
	}
	if len(ends) != 1 || ends[0] != 500 {
		t.Fatalf("segment.end counts %v, want [500] (telemetry enabled: %v)", ends, telemetry.Enabled())
	}
}

// TestWorkItemDeadlinesReportedByCause: work items overrunning
// -trialtimeout are quarantined as deadlines in the run report, in the
// journal, and in the shard alike. How many items beat a 1ns timer depends
// on timing, so the test checks that the three accounts agree.
func TestWorkItemDeadlinesReportedByCause(t *testing.T) {
	shard := filepath.Join(t.TempDir(), "t9.jsonl")
	err := runCLI([]string{"run", "-exp", "T9", "-trialtimeout", "1ns", "-events", "-quiet", "-o", shard}, io.Discard)
	if err != nil && cli.ExitCodeOf(err) != cli.ExitTrial {
		t.Fatalf("run: %v (code %d)", err, cli.ExitCodeOf(err))
	}
	data, err := os.ReadFile(shard + ".report.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := events.ReadEventsFile(shard + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, e := range evs {
		if e.Type == events.TypeQuarantine && e.Cause == events.CauseDeadline {
			points++
		}
	}
	f, err := os.Open(shard)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := sink.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	errRecords := 0
	for _, rec := range recs {
		if rec.Err != "" {
			errRecords++
		}
	}
	q := rep.Trials.Quarantined
	if q.Total == 0 || q.Deadline != q.Total || points != q.Total || errRecords != q.Total {
		t.Fatalf("report quarantined %+v, journal has %d deadline points, shard has %d err records",
			q, points, errRecords)
	}
}
