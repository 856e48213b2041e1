package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/sink"
)

// goldenRun executes a fresh (non-resume) run into path and returns the
// file's bytes: the uninterrupted reference every resume test compares
// against.
func goldenRun(t *testing.T, args []string, path string) []byte {
	t.Helper()
	if err := runCLI(append(args, "-o", path), os.Stdout); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writePartial simulates a crash-truncated shard file: the first keepLines
// complete records of golden, plus extraBytes of the next line (a torn tail
// a SIGKILL mid-write leaves behind).
func writePartial(t *testing.T, golden []byte, path string, keepLines, extraBytes int) {
	t.Helper()
	lines := bytes.SplitAfter(golden, []byte("\n"))
	var b []byte
	for i := 0; i < keepLines; i++ {
		b = append(b, lines[i]...)
	}
	if extraBytes > 0 {
		next := lines[keepLines]
		if extraBytes >= len(next) {
			extraBytes = len(next) - 1 // must stay a torn, incomplete line
		}
		b = append(b, next[:extraBytes]...)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

var trialsFlags = []string{"-trials", "40", "-shard", "1/3",
	"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
	"-loss", "prob", "-p", "0.4", "-cst", "9", "-seed", "11"}

// TestResumeTrialsByteIdentical: a configuration-sweep shard file cut off
// mid-record (torn tail) resumes to bytes identical to the uninterrupted
// run's.
func TestResumeTrialsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	golden := goldenRun(t, append([]string{"run"}, trialsFlags...), filepath.Join(dir, "golden.jsonl"))

	partial := filepath.Join(dir, "partial.jsonl")
	writePartial(t, golden, partial, 5, 30)
	var out strings.Builder
	if err := runCLI(append(append([]string{"run", "-resume"}, trialsFlags...), "-o", partial), &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(out.String(), "discarding torn tail") {
		t.Fatalf("resume did not report the torn tail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "5 of 13 trial(s) durable, 8 to run") {
		t.Fatalf("resume accounting wrong:\n%s", out.String())
	}
	resumed, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resumed shard differs from the uninterrupted run")
	}
}

// TestResumeGridByteIdentical: a grid-experiment shard cut at a clean record
// boundary resumes byte-identically, and resuming a file that never existed
// is just a fresh run.
func TestResumeGridByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-exp", "T3", "-shard", "0/2"}
	golden := goldenRun(t, args, filepath.Join(dir, "golden.jsonl"))

	partial := filepath.Join(dir, "partial.jsonl")
	writePartial(t, golden, partial, 3, 0)
	if err := runCLI(append(append([]string{"run", "-resume"}, args[1:]...), "-o", partial), os.Stdout); err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resumed shard differs from the uninterrupted run")
	}

	fresh := filepath.Join(dir, "fresh.jsonl")
	var out strings.Builder
	if err := runCLI(append(append([]string{"run", "-resume"}, args[1:]...), "-o", fresh), &out); err != nil {
		t.Fatalf("resume of missing file: %v", err)
	}
	if !strings.Contains(out.String(), "0 of ") {
		t.Fatalf("missing file should resume as an empty prefix:\n%s", out.String())
	}
	if data, _ := os.ReadFile(fresh); !bytes.Equal(data, golden) {
		t.Fatal("resume of a missing file differs from a fresh run")
	}
}

// TestResumeMultiSegmentByteIdentical: a shard carrying a grid experiment
// followed by a work-item pipeline, torn inside the second segment, resumes
// byte-identically — the salvage prefix spans a completed segment plus part
// of the next.
func TestResumeMultiSegmentByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-exp", "T8,T9", "-shard", "0/2"}
	golden := goldenRun(t, args, filepath.Join(dir, "golden.jsonl"))
	total := bytes.Count(golden, []byte("\n"))
	if total < 4 {
		t.Fatalf("need at least 4 records to tear the tail, have %d", total)
	}

	partial := filepath.Join(dir, "partial.jsonl")
	writePartial(t, golden, partial, total-2, 25)
	if err := runCLI(append(append([]string{"run", "-resume"}, args[1:]...), "-o", partial), os.Stdout); err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resumed multi-segment shard differs from the uninterrupted run")
	}
}

// TestResumeRejectsMismatches: a resume whose invocation does not derive the
// salvaged prefix — different seed, configuration, experiment set, or a file
// with surplus records — is rejected with exit code 4 and leaves the file
// untouched.
func TestResumeRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	trialsFile := filepath.Join(dir, "trials.jsonl")
	trialsGolden := goldenRun(t, append([]string{"run"}, trialsFlags...), trialsFile)
	expFile := filepath.Join(dir, "t8.jsonl")
	goldenRun(t, []string{"run", "-exp", "T8", "-shard", "0/1"}, expFile)

	replace := func(flags []string, k, v string) []string {
		out := append([]string(nil), flags...)
		for i := range out {
			if out[i] == k {
				out[i+1] = v
			}
		}
		return out
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"seed", replace(trialsFlags, "-seed", "12"), "seed schedule"},
		{"schedule", append(append([]string(nil), trialsFlags...), "-schedule", "2"),
			"recorded under seed schedule v1, expected v2"},
		{"config", replace(trialsFlags, "-p", "0.5"), "different configuration parameters"},
		{"surplus", replace(trialsFlags, "-trials", "20"), "beyond what this invocation produces"},
		{"experiment", []string{"-exp", "T9", "-shard", "0/1"}, "record belongs to"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := trialsFile
			if tc.name == "experiment" {
				path = expFile
			}
			err := runCLI(append(append([]string{"run", "-resume"}, tc.args...), "-o", path), os.Stdout)
			if err == nil {
				t.Fatal("mismatched resume accepted")
			}
			if code := cli.ExitCodeOf(err); code != cli.ExitReject {
				t.Fatalf("exit code %d, want %d (reject): %v", code, cli.ExitReject, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %v does not name the mismatch (%q)", err, tc.want)
			}
			if tc.name == "schedule" {
				// Schedule skew surfaces as the typed, positioned error so
				// tooling can classify it without string matching.
				var mismatch *sink.ScheduleMismatchError
				if !errors.As(err, &mismatch) {
					t.Fatalf("schedule rejection %v is not a *sink.ScheduleMismatchError", err)
				}
				if mismatch.Got != 1 || mismatch.Want != 2 {
					t.Fatalf("schedule mismatch %+v, want got=1 want=2", mismatch)
				}
			}
		})
	}
	// Rejection must not have truncated or grown the recorded file.
	if data, _ := os.ReadFile(trialsFile); !bytes.Equal(data, trialsGolden) {
		t.Fatal("rejected resume modified the shard file")
	}
}

// TestTrialTimeoutQuarantineCLI: -trialtimeout turns overrunning trials into
// in-slot quarantine records and the run exits with the per-trial-error
// code. Bit-by-bit under total loss with ECF disabled never decides, so
// every trial overruns.
func TestTrialTimeoutQuarantineCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	err := runCLI([]string{"run", "-trials", "3",
		"-alg", "bitbybit", "-loss", "drop", "-cst", "0",
		"-rounds", fmt.Sprint(1 << 30), "-trialtimeout", "25ms",
		"-seed", "3", "-o", path}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err %v, want a deadline trial error", err)
	}
	if code := cli.ExitCodeOf(err); code != cli.ExitTrial {
		t.Fatalf("exit code %d, want %d (per-trial errors)", code, cli.ExitTrial)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := sink.ReadRecords(f)
	if err != nil {
		t.Fatalf("quarantine stream not valid JSONL: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("stream carries %d records, want all 3 (quarantined)", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i || !strings.Contains(rec.Err, "deadline") || rec.Rounds != 0 {
			t.Fatalf("record %d not an in-slot quarantine: %+v", i, rec)
		}
	}
}

// TestInterruptThenResumeByteIdentical is the crash-safety acceptance test:
// cancel a shard mid-sweep (the in-process face of SIGINT), check the clean
// interrupt contract — distinct exit code, resume hint, valid JSONL prefix
// on disk — then resume and compare byte-for-byte against an uninterrupted
// run.
func TestInterruptThenResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-trials", "30000", "-seed", "5", "-workers", "2"}
	golden := goldenRun(t, append([]string{"run"}, flags...), filepath.Join(dir, "golden.jsonl"))

	interrupted := filepath.Join(dir, "interrupted.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel as soon as the stream has flushed its first records — the
		// moment a real operator's SIGINT would land mid-sweep.
		for {
			if st, err := os.Stat(interrupted); err == nil && st.Size() > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var out strings.Builder
	err := run(ctx, append(append([]string{"run"}, flags...), "-o", interrupted), &out)
	if err == nil {
		t.Fatal("sweep outran the interrupt; raise -trials")
	}
	if code := cli.ExitCodeOf(err); code != cli.ExitInterrupt {
		t.Fatalf("exit code %d, want %d (clean interrupt): %v", code, cli.ExitInterrupt, err)
	}
	if !strings.Contains(out.String(), "resume with: sweeprun run -resume") {
		t.Fatalf("interrupt did not print the resume command:\n%s", out.String())
	}

	// The interrupted file must already be a valid record prefix (the tail
	// was flushed on the way out), and resuming completes it byte-identically.
	f, ferr := os.Open(interrupted)
	if ferr != nil {
		t.Fatal(ferr)
	}
	recs, rerr := sink.ReadRecords(f)
	f.Close()
	if rerr != nil {
		t.Fatalf("interrupted file is not a clean record prefix: %v", rerr)
	}
	if len(recs) == 0 || len(recs) >= 30000 {
		t.Fatalf("interrupted file has %d records, want a proper prefix", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("interrupted prefix not contiguous at %d: %+v", i, rec)
		}
	}
	if err := runCLI(append(append([]string{"run", "-resume"}, flags...), "-o", interrupted), os.Stdout); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	resumed, err2 := os.ReadFile(interrupted)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("interrupt + resume differs from the uninterrupted run")
	}
}

// TestRunRefusesUnrunnableTrialsConfig: a -trials configuration whose
// flags parse but whose trials cannot run (an unknown seed schedule, a
// value outside the domain) is refused while planning, with the usage
// code, before the shard file or its run report exists.
func TestRunRefusesUnrunnableTrialsConfig(t *testing.T) {
	for _, config := range [][]string{
		{"-schedule", "7"},
		{"-values", "9", "-domain", "4"},
	} {
		out := filepath.Join(t.TempDir(), "x.jsonl")
		args := append([]string{"run", "-trials", "5", "-o", out}, config...)
		err := runCLI(args, io.Discard)
		if code := cli.ExitCodeOf(err); err == nil || code != cli.ExitUsage {
			t.Fatalf("%q: exit code %d (%v), want %d", config, code, err, cli.ExitUsage)
		}
		for _, p := range []string{out, out + ".report.json"} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("%q left %s behind (stat: %v)", config, filepath.Base(p), err)
			}
		}
	}
}

// TestExitCodeClassification pins the documented exit codes onto
// representative failures of each class.
func TestExitCodeClassification(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	goldenRun(t, []string{"run", "-exp", "T8", "-shard", "0/1"}, good)
	corrupted := filepath.Join(dir, "corrupt.jsonl")
	corruptSeed(t, good, corrupted)

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"usage: no mode", []string{"run"}, cli.ExitUsage},
		{"usage: unknown subcommand", []string{"bogus"}, cli.ExitUsage},
		{"usage: resume without -o", []string{"run", "-resume", "-exp", "T8"}, cli.ExitUsage},
		{"sink: unreadable merge input", []string{"merge", filepath.Join(dir, "missing.jsonl")}, cli.ExitSink},
		{"reject: corrupted merge input", []string{"merge", corrupted}, cli.ExitReject},
		{"reject: empty verify set", []string{"verify", good, good}, cli.ExitReject},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := runCLI(tc.args, &out)
			if err == nil {
				t.Fatal("expected an error")
			}
			if code := cli.ExitCodeOf(err); code != tc.want {
				t.Fatalf("exit code %d, want %d: %v", code, tc.want, err)
			}
		})
	}
	if code := cli.ExitCodeOf(nil); code != cli.ExitOK {
		t.Fatalf("nil error classified %d, want 0", code)
	}
}
