package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sink"
)

// runCLI invokes the CLI entry point with a background context, the way
// every test that isn't exercising cancellation wants to.
func runCLI(args []string, out io.Writer) error {
	return run(context.Background(), args, out)
}

// runShards executes an experiment sharded k ways into JSONL files and
// returns the merged output.
func runShards(t *testing.T, exp string, k, workers int) string {
	t.Helper()
	dir := t.TempDir()
	files := make([]string, 0, k)
	for i := 0; i < k; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		args := []string{"run", "-exp", exp,
			"-shard", fmt.Sprintf("%d/%d", i, k),
			"-workers", fmt.Sprint(workers), "-o", path}
		if err := runCLI(args, os.Stdout); err != nil {
			t.Fatalf("shard %d/%d: %v", i, k, err)
		}
		files = append(files, path)
	}
	var out strings.Builder
	if err := runCLI(append([]string{"merge"}, files...), &out); err != nil {
		t.Fatalf("merge %d shards: %v", k, err)
	}
	return out.String()
}

// TestMergeByteIdenticalAcrossShardCounts is the subsystem's acceptance
// test: for k in {1, 2, 4, 7}, merging the k shard files reproduces the
// in-process single-machine table byte for byte. T4 exercises crash
// schedules; T3 seeded loss and noise; both run under both trace modes via
// the forced-trace hook.
func TestMergeByteIdenticalAcrossShardCounts(t *testing.T) {
	for _, tc := range []struct {
		exp string
		fn  func() (*experiments.Table, error)
	}{
		{"T3", experiments.T3Alg2ValueSweep},
		{"T4", experiments.T4Alg3NoCF}, // crash schedules
	} {
		for _, mode := range []struct {
			name  string
			trace engine.TraceMode
		}{
			{"decisions", engine.TraceDecisionsOnly},
			{"full", engine.TraceFull},
		} {
			t.Run(tc.exp+"/"+mode.name, func(t *testing.T) {
				restore := experiments.ForceTraceMode(mode.trace)
				defer restore()
				table, err := tc.fn()
				if err != nil {
					t.Fatal(err)
				}
				if !table.Pass {
					t.Fatalf("in-process %s failed:\n%s", tc.exp, table)
				}
				want := fmt.Sprintln(table)
				for _, k := range []int{1, 2, 4, 7} {
					got := runShards(t, tc.exp, k, 3)
					if got != want {
						t.Fatalf("k=%d shards diverged from in-process run:\n--- merged ---\n%s--- in-process ---\n%s", k, got, want)
					}
				}
			})
		}
	}
}

// TestMergeTrialsByteIdentical covers the configuration-sweep path: shard a
// 60-trial sweep 4 ways through the CLI, merge, and require the exact
// stats + seed-provenance block the in-process RunTrials path prints.
func TestMergeTrialsByteIdentical(t *testing.T) {
	cfgFlags := []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
		"-loss", "prob", "-p", "0.4", "-cst", "9", "-seed", "11"}
	const trials = 60

	// In-process expectation, via the same public API consensus-sim uses.
	cfg := adhocconsensus.Config{
		Algorithm:    adhocconsensus.AlgorithmBitByBit,
		Values:       []adhocconsensus.Value{3, 7, 7, 1},
		Domain:       16,
		Loss:         adhocconsensus.LossProbabilistic,
		LossP:        0.4,
		ECFRound:     9,
		Stable:       9,
		DetectorRace: 9,
		Seed:         11,
		MaxRounds:    100000,
		ResultSink:   nil,
	}
	var collected []adhocconsensus.TrialResult
	cfg.ResultSink = trialCollector{&collected}
	st, err := cfg.RunTrials(trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	cli.PrintTrialStats(&want, cfg.Algorithm, len(cfg.Values), st)
	cli.PrintSeedProvenance(&want, collected)

	dir := t.TempDir()
	const k = 4
	files := make([]string, 0, k)
	for i := 0; i < k; i++ {
		path := filepath.Join(dir, fmt.Sprintf("t%d.jsonl", i))
		args := append([]string{"run", "-trials", fmt.Sprint(trials),
			"-shard", fmt.Sprintf("%d/%d", i, k), "-o", path}, cfgFlags...)
		if err := runCLI(args, os.Stdout); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		files = append(files, path)
	}
	var got strings.Builder
	if err := runCLI(append([]string{"merge"}, files...), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("merged trials output diverged:\n--- merged ---\n%s--- in-process ---\n%s", got.String(), want.String())
	}
}

// trialCollector mirrors consensus-sim's sink for the expectation side.
type trialCollector struct {
	results *[]adhocconsensus.TrialResult
}

func (c trialCollector) Consume(r adhocconsensus.TrialResult) error {
	*c.results = append(*c.results, r)
	return nil
}

// TestWorkItemShardsByteIdentical is the work-item acceptance test: the
// bespoke pipelines shard through universal work items, and for k in
// {1, 2, 4} the merged shard files reproduce the in-process table byte for
// byte. M1 covers seeded stochastic floods; T9 the deterministic
// impossibility constructions (detail strings with unicode).
func TestWorkItemShardsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		exp string
		fn  func() (*experiments.Table, error)
	}{
		{"M1", experiments.M1MultihopFlood},
		{"T9", experiments.T9Impossibility},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			table, err := tc.fn()
			if err != nil {
				t.Fatal(err)
			}
			if !table.Pass {
				t.Fatalf("in-process %s failed:\n%s", tc.exp, table)
			}
			want := fmt.Sprintln(table)
			for _, k := range []int{1, 2, 4} {
				got := runShards(t, tc.exp, k, 3)
				if got != want {
					t.Fatalf("k=%d shards diverged from in-process run:\n--- merged ---\n%s--- in-process ---\n%s", k, got, want)
				}
			}
		})
	}
}

// TestReplayRendersWithoutRerun: the replay subcommand reproduces the
// IN-PROCESS tables byte-identically from shard files alone —
// render-without-rerun through the CLI, for a grid and a work experiment
// in one run. (merge shares replay's code path, so the reference here is
// deliberately the in-process renderer, not merge's output.)
func TestReplayRendersWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	files := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		if err := runCLI([]string{"run", "-exp", "T8,T9", "-shard", fmt.Sprintf("%d/2", i), "-o", path}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	t8, err := experiments.T8MajHalfGap()
	if err != nil {
		t.Fatal(err)
	}
	t9, err := experiments.T9Impossibility()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintln(t8) + fmt.Sprintln(t9)
	var replayed strings.Builder
	if err := runCLI(append([]string{"replay"}, files...), &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != want {
		t.Fatalf("replay diverged from in-process tables:\n--- replay ---\n%s--- in-process ---\n%s", replayed.String(), want)
	}

	// -quiet reduces each experiment to one PASS/FAIL line.
	var quiet strings.Builder
	if err := runCLI(append([]string{"replay", "-quiet"}, files...), &quiet); err != nil {
		t.Fatal(err)
	}
	if quiet.String() != "T8: PASS\nT9: PASS\n" {
		t.Fatalf("quiet output:\n%s", quiet.String())
	}
}

// TestVerifyAuditsFlaggedSeeds drives the forensic loop through the CLI:
// T8's recorded agreement violation is flagged and re-executed at full
// trace against the recorded digest; a corrupted record makes verify exit
// non-zero; -bundle writes the trace bundle.
func TestVerifyAuditsFlaggedSeeds(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "t8.jsonl")
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "0/1", "-o", shard}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	bundles := filepath.Join(dir, "bundles")
	var out strings.Builder
	if err := runCLI([]string{"verify", "-flag", "violations,slowest=1", "-bundle", bundles, shard}, &out); err != nil {
		t.Fatalf("honest verify failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "digest ok, trace legal") {
		t.Fatalf("verify output missing clean audits:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[violation]") {
		t.Fatalf("verify output missing the violation flag:\n%s", out.String())
	}
	written, err := filepath.Glob(filepath.Join(bundles, "T8-*.txt"))
	if err != nil || len(written) == 0 {
		t.Fatalf("no trace bundles written: %v %v", written, err)
	}
	bundle, err := os.ReadFile(written[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(bundle), "trace bundle") {
		t.Fatalf("bundle content:\n%s", bundle)
	}

	// Corrupt one record's digest: recheck must catch it and exit non-zero.
	corrupted := filepath.Join(dir, "bad.jsonl")
	corruptRecord(t, shard, corrupted)
	var bad strings.Builder
	if err := runCLI([]string{"verify", "-flag", "recheck", corrupted}, &bad); err == nil {
		t.Fatalf("corrupted shard passed verification:\n%s", bad.String())
	}
	if !strings.Contains(bad.String(), "AUDIT FAILED") || !strings.Contains(bad.String(), "digest-mismatch") {
		t.Fatalf("verify output does not report the failed audit:\n%s", bad.String())
	}
}

// rewriteFirst copies a shard file, applying edit to its first record.
func rewriteFirst(t *testing.T, src, dst string, edit func(*sink.Record)) {
	t.Helper()
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sink.ReadRecords(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	edit(&recs[0])
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	j := sink.NewJSONL(out)
	for _, rec := range recs {
		if err := j.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	out.Close()
}

// corruptRecord copies a shard file, bumping the first record's round count.
func corruptRecord(t *testing.T, src, dst string) {
	t.Helper()
	rewriteFirst(t, src, dst, func(rec *sink.Record) { rec.Rounds += 2 })
}

// quarantineFirst copies a shard file, rewriting its first record as the
// writer records a quarantined trial or item: the error set, the digest
// zeroed, the identity (fingerprint, seed, params, item) kept.
func quarantineFirst(t *testing.T, src, dst string) {
	t.Helper()
	rewriteFirst(t, src, dst, func(rec *sink.Record) {
		*rec = sink.Record{Schema: rec.Schema, Exp: rec.Exp, Fingerprint: rec.Fingerprint, Index: rec.Index,
			Name: rec.Name, Seed: rec.Seed, Item: rec.Item, ItemParams: rec.ItemParams, Params: rec.Params,
			Err: "panic: injected"}
	})
}

// TestVerifyTrialsThroughPublicAPI: configuration-sweep records verify
// through Config.ReplayFlagged when the run's flags are repeated; a
// mismatched configuration is rejected by fingerprint.
func TestVerifyTrialsThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "trials.jsonl")
	cfgFlags := []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
		"-loss", "prob", "-p", "0.4", "-cst", "9", "-seed", "11"}
	if err := runCLI(append([]string{"run", "-trials", "20", "-shard", "0/1", "-o", shard}, cfgFlags...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCLI(append(append([]string{"verify", "-flag", "slowest=2"}, cfgFlags...), shard), &out); err != nil {
		t.Fatalf("honest trials verify failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 trial(s) flagged of 20") || !strings.Contains(out.String(), "digest ok, trace legal") {
		t.Fatalf("trials verify output:\n%s", out.String())
	}
	// Different -seed => different sweep fingerprint => rejected.
	var mism strings.Builder
	wrong := append([]string{"verify", "-flag", "slowest=1", "-alg", "bitbybit", "-values", "3,7,7,1",
		"-domain", "16", "-loss", "prob", "-p", "0.4", "-cst", "9", "-seed", "12"}, shard)
	if err := runCLI(wrong, &mism); err == nil {
		t.Fatal("mismatched configuration accepted for trials verification")
	}
}

// TestVerifyTrialsSkipsQuarantined: a quarantined trial of a -trials shard
// carries no digest, so verify neither flags nor audits it.
func TestVerifyTrialsSkipsQuarantined(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "trials.jsonl")
	cfgFlags := []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
		"-loss", "prob", "-p", "0.4", "-cst", "9", "-seed", "11"}
	if err := runCLI(append([]string{"run", "-trials", "6", "-o", recorded}, cfgFlags...), io.Discard); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "quarantined.jsonl")
	quarantineFirst(t, recorded, shard)
	var out strings.Builder
	if err := runCLI(append(append([]string{"verify"}, cfgFlags...), shard), &out); err != nil {
		t.Fatalf("verify of a shard with a quarantined trial failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "  trial 0 ") {
		t.Fatalf("verify printed a line for the quarantined trial 0:\n%s", out.String())
	}
}

// TestMergeShardVerdicts: a rejected shard set names the offending file and
// exits non-zero, and -quiet condenses passing merges.
func TestMergeShardVerdicts(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "0/2", "-o", good}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := runCLI([]string{"run", "-exp", "T8", "-shard", "1/2", "-o", bad}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	corrupted := filepath.Join(dir, "corrupted.jsonl")
	corruptSeed(t, bad, corrupted)
	var out strings.Builder
	if err := runCLI([]string{"merge", good, corrupted}, &out); err == nil {
		t.Fatal("merge accepted a corrupted shard")
	}
	if !strings.Contains(out.String(), "shard "+good+": ok") {
		t.Fatalf("good shard not marked ok:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shard "+corrupted+": REJECTED") {
		t.Fatalf("corrupted shard not named:\n%s", out.String())
	}

	var quiet strings.Builder
	if err := runCLI([]string{"merge", "-quiet", good, bad}, &quiet); err != nil {
		t.Fatalf("quiet merge of honest shards failed: %v\n%s", err, quiet.String())
	}
	if quiet.String() != "T8: PASS\n" {
		t.Fatalf("quiet merge output:\n%s", quiet.String())
	}
}

// corruptSeed copies a shard file, bumping the first record's seed (a
// provenance violation the per-shard verdict must localize).
func corruptSeed(t *testing.T, src, dst string) {
	t.Helper()
	rewriteFirst(t, src, dst, func(rec *sink.Record) { rec.Seed++ })
}

// TestMergeVerdictsRunMergesChecks: the per-shard verdicts of a rejected set
// run the checks merge runs, so they name the shard whose record merge
// refused — a quarantined work item, whose outcome is its table's only
// input, and a reseeded sweep trial — and pass the honest one.
func TestMergeVerdictsRunMergesChecks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     []string
		bad     int // the shard whose first record is rewritten
		corrupt func(t *testing.T, src, dst string)
	}{
		{"quarantined-item", []string{"-exp", "T9"}, 0, quarantineFirst},
		{"reseeded-trial", []string{"-trials", "10", "-loss", "prob", "-p", "0.4", "-seed", "1"}, 1, corruptSeed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			paths := make([]string, 2)
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
				args := append(append([]string{"run"}, tc.run...), "-shard", fmt.Sprintf("%d/2", i), "-o", paths[i])
				if err := runCLI(args, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			bad := filepath.Join(dir, "bad.jsonl")
			tc.corrupt(t, paths[tc.bad], bad)
			paths[tc.bad] = bad
			var out strings.Builder
			err := runCLI(append([]string{"merge"}, paths...), &out)
			if code := exitCodeOf(err); err == nil || code != exitReject {
				t.Fatalf("merge = %v (exit %d), want a rejection (exit %d):\n%s", err, code, exitReject, out.String())
			}
			for i, path := range paths {
				want := "shard " + path + ": ok"
				if i == tc.bad {
					want = "shard " + path + ": REJECTED"
				}
				if !strings.Contains(out.String(), want) {
					t.Fatalf("verdicts lack %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestMergeRejectsBadShardSets covers the merge guards: incomplete covers,
// overlapping shards, and mixed configurations must fail loudly rather
// than fold into wrong tables.
func TestMergeRejectsBadShardSets(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	for i, path := range []string{s0, s1} {
		if err := runCLI([]string{"run", "-exp", "T8", "-shard", fmt.Sprintf("%d/2", i), "-o", path}, os.Stdout); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCLI([]string{"merge", s0}, os.Stdout); err == nil {
		t.Fatal("merge accepted an incomplete shard set")
	}
	if err := runCLI([]string{"merge", s0, s1, s1}, os.Stdout); err == nil {
		t.Fatal("merge accepted overlapping shards")
	}

	// A shard of a different configuration must be rejected by fingerprint.
	tr0 := filepath.Join(dir, "tr0.jsonl")
	tr1 := filepath.Join(dir, "tr1.jsonl")
	if err := runCLI([]string{"run", "-trials", "10", "-shard", "0/2", "-seed", "1", "-o", tr0}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := runCLI([]string{"run", "-trials", "10", "-shard", "1/2", "-p", "0.4", "-loss", "prob", "-seed", "1", "-o", tr1}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := runCLI([]string{"merge", tr0, tr1}, os.Stdout); err == nil {
		t.Fatal("merge accepted shards of two different configurations")
	}

	// Same parameters but a different base -seed is also a different sweep:
	// the fingerprint covers the sweep seed, so the mix must be rejected.
	sd1 := filepath.Join(dir, "sd1.jsonl")
	if err := runCLI([]string{"run", "-trials", "10", "-shard", "1/2", "-seed", "2", "-o", sd1}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := runCLI([]string{"merge", tr0, sd1}, os.Stdout); err == nil {
		t.Fatal("merge accepted shards run with different base seeds")
	}
}

// TestMergeRejectsMixedSchedules: shards of one configuration recorded
// under different seed schedules are different experiments; merge must
// reject the mix with the typed, positioned error (and exit code 4), and a
// uniform v2 shard set must merge cleanly.
func TestMergeRejectsMixedSchedules(t *testing.T) {
	dir := t.TempDir()
	shard := func(name string, i, k int, extra ...string) string {
		path := filepath.Join(dir, name)
		args := append([]string{"run", "-trials", "10", "-shard", fmt.Sprintf("%d/%d", i, k),
			"-loss", "prob", "-p", "0.4", "-seed", "1", "-o", path}, extra...)
		if err := runCLI(args, os.Stdout); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return path
	}
	v1a := shard("v1a.jsonl", 0, 2)
	v2b := shard("v2b.jsonl", 1, 2, "-schedule", "2")
	err := runCLI([]string{"merge", v1a, v2b}, os.Stdout)
	if err == nil {
		t.Fatal("merge accepted shards recorded under different seed schedules")
	}
	if code := exitCodeOf(err); code != exitReject {
		t.Fatalf("exit code %d, want %d (reject): %v", code, exitReject, err)
	}
	var mismatch *sink.ScheduleMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("mixed-schedule rejection %v is not a *sink.ScheduleMismatchError", err)
	}
	if mismatch.Got == mismatch.Want {
		t.Fatalf("degenerate mismatch %+v", mismatch)
	}

	// A complete, uniform v2 shard set is a legitimate sweep and merges.
	v2a := shard("v2a.jsonl", 0, 2, "-schedule", "2")
	var out strings.Builder
	if err := runCLI([]string{"merge", v2a, v2b}, &out); err != nil {
		t.Fatalf("uniform v2 merge failed: %v", err)
	}
	if !strings.Contains(out.String(), "trials") {
		t.Fatalf("v2 merge printed no trials summary:\n%s", out.String())
	}
}

// TestRunRejectsBadInput covers the CLI's own validation.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"no mode", []string{"run"}},
		{"both modes", []string{"run", "-exp", "T3", "-trials", "5"}},
		{"bad shard", []string{"run", "-exp", "T3", "-shard", "2/2"}},
		{"shard trailing garbage", []string{"run", "-exp", "T3", "-shard", "1/2/3"}},
		{"shard not numeric", []string{"run", "-exp", "T3", "-shard", "a/b"}},
		{"unknown experiment", []string{"run", "-exp", "T99"}},
		{"merge without files", []string{"merge"}},
		{"replay without files", []string{"replay"}},
		{"verify without files", []string{"verify"}},
		{"verify bad selector", []string{"verify", "-flag", "frobnicate", "x.jsonl"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := runCLI(tt.args, os.Stdout); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

// TestRunExpandsAllInAList: "all" expands inside an -exp list exactly as in
// a job spec's exps, so planning gets past it to the unknown name.
func TestRunExpandsAllInAList(t *testing.T) {
	err := runCLI([]string{"run", "-exp", "all,T99", "-o", filepath.Join(t.TempDir(), "x.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `no experiment "T99"`) {
		t.Fatalf("run -exp all,T99 = %v, want the T99 rejection", err)
	}
}
