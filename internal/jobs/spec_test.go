package jobs

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSpecValidate pins the admission-time rejections.
func TestSpecValidate(t *testing.T) {
	base := Spec{Trials: 10, Shards: 1, Out: "x.jsonl"}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"both-exps-and-trials", func(s *Spec) { s.Exps = []string{"T3"} }},
		{"neither", func(s *Spec) { s.Trials = 0 }},
		{"bad-shard", func(s *Spec) { s.Shard = 2; s.Shards = 2 }},
		{"no-out", func(s *Spec) { s.Out = "" }},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: invalid spec admitted", tc.name)
		}
	}
}

// TestSpecFingerprint: identity covers everything that shapes the record
// stream or its destination; Workers (stream-invariant) stays out.
func TestSpecFingerprint(t *testing.T) {
	base := Spec{Trials: 10, Config: []string{"-alg", "propose"}, Shards: 1, Out: "x.jsonl"}
	same := base
	same.Workers = 8
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("worker count changed the fingerprint")
	}
	for name, mutate := range map[string]func(*Spec){
		"trials": func(s *Spec) { s.Trials = 11 },
		"config": func(s *Spec) { s.Config = []string{"-alg", "bitbybit"} },
		"shard":  func(s *Spec) { s.Shard = 1; s.Shards = 2 },
		"out":    func(s *Spec) { s.Out = "y.jsonl" },
		"exps":   func(s *Spec) { s.Trials = 0; s.Config = nil; s.Exps = []string{"T3"} },
	} {
		other := base
		mutate(&other)
		if base.Fingerprint() == other.Fingerprint() {
			t.Fatalf("%s change did not move the fingerprint", name)
		}
	}
}

// TestBuildSegmentsRejects: plans that cannot build are refused with the
// reason, before any execution.
func TestBuildSegmentsRejects(t *testing.T) {
	if _, err := BuildSegments(Spec{Exps: []string{"T99"}, Out: "x"}); err == nil {
		t.Fatal("unknown experiment compiled")
	}
	if _, err := BuildSegments(Spec{Trials: 5, Config: []string{"-no-such-flag"}, Out: "x"}); err == nil {
		t.Fatal("bad config flags compiled")
	}
	if _, err := BuildSegments(Spec{Trials: 5, Config: []string{"-alg", "propose", "stray"}, Out: "x"}); err == nil {
		t.Fatal("stray non-flag argument compiled")
	}
}

// TestExperimentSegmentsExpandAll: "all" expands in place to every grid,
// then every work pipeline — the order every recorded "-exp all" file has —
// and names are trimmed: the one resolver behind both a job spec's exps and
// "sweeprun run -exp".
func TestExperimentSegmentsExpandAll(t *testing.T) {
	segs, err := ExperimentSegments([]string{"all", " T3"}, 0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"T1", "T2", "T3", "T4", "T5", "T8", "A1", "A2", "T6", "T7", "T9", "A3", "M1", "T3"}
	var got []string
	for _, s := range segs {
		got = append(got, s.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("segments %v, want %v", got, want)
	}
}

// TestExecuteIsResumableAndIdempotent: Execute against a missing file runs
// fresh; re-running the identical finished spec salvages everything,
// executes nothing, and leaves the bytes untouched — the property that
// makes the supervisor's blind retry/restart policy safe.
func TestExecuteIsResumableAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Trials: 30,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, "shard.jsonl"),
	}
	rep, err := Execute(context.Background(), spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials.Planned != 30 || rep.Trials.Executed != 30 || rep.Trials.Salvaged != 0 {
		t.Fatalf("fresh run accounting: %+v", rep.Trials)
	}
	first, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spec.Out + ".report.json"); err != nil {
		t.Fatalf("run report missing: %v", err)
	}

	rep2, err := Execute(context.Background(), spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Trials.Salvaged != 30 || rep2.Trials.Executed != 0 {
		t.Fatalf("idempotent re-run accounting: %+v", rep2.Trials)
	}
	second, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("idempotent re-run changed the shard bytes")
	}
}

// TestExecuteResumesTornFile: a shard file cut mid-line (the SIGKILL
// artifact) finishes byte-identical to an uninterrupted run.
func TestExecuteResumesTornFile(t *testing.T) {
	dir := t.TempDir()
	ref := Spec{
		Trials: 40,
		Config: []string{"-alg", "propose", "-seed", "3"},
		Out:    filepath.Join(dir, "ref.jsonl"),
	}
	if _, err := Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	torn := ref
	torn.Out = filepath.Join(dir, "torn.jsonl")
	cut := len(want)*2/3 + 3 // mid-line, torn tail
	if err := os.WriteFile(torn.Out, want[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(context.Background(), torn, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials.Salvaged == 0 || rep.Trials.Salvaged+rep.Trials.Executed != 40 {
		t.Fatalf("torn resume accounting: %+v", rep.Trials)
	}
	got, err := os.ReadFile(torn.Out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("resumed torn file differs from the uninterrupted run")
	}
}

// TestExecuteChecksTimeouts is a plan-compilation check: TrialTimeout rides
// the spec into the segment plan (smoke — the watchdog itself is tested in
// sim).
func TestExecuteChecksTimeouts(t *testing.T) {
	segs, err := BuildSegments(Spec{
		Trials: 5, Config: []string{"-alg", "propose"},
		TrialTimeout: time.Second, Shards: 1, Out: "x",
	})
	if err != nil || len(segs) != 1 || segs[0].Length != 5 {
		t.Fatalf("plan: %d segments, err %v", len(segs), err)
	}
}
