package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/telemetry"
)

// TestRunWritesValidReport: a -o run emits <out>.report.json by default, the
// document passes the schema validator, and its accounting matches the run.
func TestRunWritesValidReport(t *testing.T) {
	shard := filepath.Join(t.TempDir(), "t8.jsonl")
	var out strings.Builder
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "0/1", "-o", shard}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "report: "+shard+".report.json") {
		t.Fatalf("run did not announce the report:\n%s", out.String())
	}
	data, err := os.ReadFile(shard + ".report.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ParseReport(data)
	if err != nil {
		t.Fatalf("emitted report fails its own validator: %v\n%s", err, data)
	}
	if rep.Command != "sweeprun run" || rep.Status != telemetry.StatusOK {
		t.Fatalf("report command/status = %q/%q", rep.Command, rep.Status)
	}
	if rep.Trials.Planned == 0 || rep.Trials.Executed != rep.Trials.Planned || rep.Trials.Salvaged != 0 {
		t.Fatalf("report trial accounting: %+v", rep.Trials)
	}
	if len(rep.Segments) != 1 || rep.Segments[0].Name != "T8" || rep.Segments[0].RecordBytes == 0 {
		t.Fatalf("report segments: %+v", rep.Segments)
	}
	fi, err := os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments[0].RecordBytes != uint64(fi.Size()) {
		t.Fatalf("segment record_bytes %d, shard file holds %d bytes", rep.Segments[0].RecordBytes, fi.Size())
	}
	h, ok := rep.Histograms["sim.trial.wall_ns"]
	if !ok || h.Count < uint64(rep.Trials.Executed) {
		t.Fatalf("report missing trial wall-time histogram: %+v", rep.Histograms)
	}
	if v, ok := rep.Metrics["sim.trials"].(float64); !ok || v < float64(rep.Trials.Executed) {
		t.Fatalf("report metrics sim.trials = %v, want >= %d", rep.Metrics["sim.trials"], rep.Trials.Executed)
	}
	// The summary subcommand accepts what run emits.
	var sum strings.Builder
	if err := runCLI([]string{"report", shard + ".report.json"}, &sum); err != nil {
		t.Fatalf("sweeprun report rejected the emitted report: %v", err)
	}
	if !strings.Contains(sum.String(), "status=ok") {
		t.Fatalf("report summary:\n%s", sum.String())
	}
}

// TestRunReportQuarantineByCause: deadline-quarantined trials land in the
// report's by-cause split and flip the status to trial-errors.
func TestRunReportQuarantineByCause(t *testing.T) {
	shard := filepath.Join(t.TempDir(), "shard.jsonl")
	err := runCLI([]string{"run", "-trials", "3",
		"-alg", "bitbybit", "-loss", "drop", "-cst", "0",
		"-rounds", fmt.Sprint(1 << 30), "-trialtimeout", "25ms",
		"-seed", "3", "-o", shard}, os.Stdout)
	if err == nil || cli.ExitCodeOf(err) != cli.ExitTrial {
		t.Fatalf("err %v (code %d), want per-trial errors", err, cli.ExitCodeOf(err))
	}
	data, err := os.ReadFile(shard + ".report.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ParseReport(data)
	if err != nil {
		t.Fatalf("quarantine report fails validation: %v\n%s", err, data)
	}
	if rep.Status != telemetry.StatusTrialErrors {
		t.Fatalf("report status %q, want %q", rep.Status, telemetry.StatusTrialErrors)
	}
	q := rep.Trials.Quarantined
	if q.Total != 3 || q.Deadline != 3 || q.Panic != 0 || q.Other != 0 {
		t.Fatalf("quarantine split %+v, want 3 deadline", q)
	}
}

// TestByteIdentityAcrossWorkersWithTelemetry pins the tentpole's read-only
// contract end to end: with telemetry live (report always, plus the HTTP
// endpoint on one of the runs), the shard bytes are identical at 1, 4, and
// GOMAXPROCS workers.
func TestByteIdentityAcrossWorkersWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	var golden []byte
	for i, w := range []string{"1", "4", "0"} { // 0 selects GOMAXPROCS
		path := filepath.Join(dir, fmt.Sprintf("w%s.jsonl", w))
		args := []string{"run", "-trials", "500", "-seed", "9", "-workers", w, "-o", path}
		if i == 0 {
			args = append(args, "-telemetry-addr", "127.0.0.1:0")
		}
		if err := runCLI(args, os.Stdout); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = data
			continue
		}
		if !bytes.Equal(golden, data) {
			t.Fatalf("workers=%s: shard bytes differ from workers=1 with telemetry enabled", w)
		}
		rep, err := os.ReadFile(path + ".report.json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ParseReport(rep); err != nil {
			t.Fatalf("workers=%s report invalid: %v", w, err)
		}
	}
}

// TestReportFlagControlsEmission: -report none suppresses the document,
// -report PATH redirects it.
func TestReportFlagControlsEmission(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "a.jsonl")
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "0/1", "-o", shard, "-report", "none"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(shard + ".report.json"); !os.IsNotExist(err) {
		t.Fatalf("-report none still wrote the default report (stat err %v)", err)
	}
	custom := filepath.Join(dir, "custom.json")
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "0/1", "-o", shard, "-report", custom}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(custom)
	if err != nil {
		t.Fatalf("-report PATH not honored: %v", err)
	}
	if _, err := telemetry.ParseReport(data); err != nil {
		t.Fatal(err)
	}
}

// TestReportCmdRejects: garbage exits 4, a missing file 3 — the same codes
// merge uses for its inputs.
func TestReportCmdRejects(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.report.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runCLI([]string{"report", bad}, io.Discard)
	if err == nil || cli.ExitCodeOf(err) != cli.ExitReject {
		t.Fatalf("garbage report: err %v (code %d), want %d", err, cli.ExitCodeOf(err), cli.ExitReject)
	}
	err = runCLI([]string{"report", filepath.Join(t.TempDir(), "missing.json")}, io.Discard)
	if err == nil || cli.ExitCodeOf(err) != cli.ExitSink {
		t.Fatalf("missing report: err %v (code %d), want %d", err, cli.ExitCodeOf(err), cli.ExitSink)
	}
	if err := runCLI([]string{"report"}, io.Discard); err == nil {
		t.Fatal("report with no files must be a usage error")
	}
}

// TestHelpExitcodes: the exit-code table is printable on demand and unknown
// topics are usage errors.
func TestHelpExitcodes(t *testing.T) {
	var out strings.Builder
	if err := runCLI([]string{"help", "exitcodes"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0  success", "2  the sweep completed", "5  clean interrupt"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("exit-code table missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := runCLI([]string{"help"}, &out); err != nil || !strings.Contains(out.String(), "exitcodes") {
		t.Fatalf("bare help: err %v, out:\n%s", err, out.String())
	}
	if err := runCLI([]string{"help", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown help topic accepted")
	}
}
