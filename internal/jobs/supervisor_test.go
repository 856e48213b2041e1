package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/chaos"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/telemetry"
)

// smallSpec is a fast deterministic job: ~30 propose trials.
func smallSpec(dir, name string) jobs.Spec {
	return jobs.Spec{
		Trials: 30,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, name),
	}
}

// slowSpec runs long enough (~0.5s) to catch mid-run from a test.
func slowSpec(dir, name string) jobs.Spec {
	return jobs.Spec{
		Trials: 20000,
		Config: []string{"-alg", "bitbybit", "-loss", "prob", "-p", "0.4", "-seed", "7"},
		Out:    filepath.Join(dir, name),
	}
}

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, s *jobs.Supervisor, id int64, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %d stuck in %s after %v", id, st.State, timeout)
	return jobs.Status{}
}

// TestSupervisorRunsJobByteIdentical: a supervised job's shard file is
// byte-identical to the same spec executed directly — the daemon adds
// supervision, never bytes.
func TestSupervisorRunsJobByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ref := smallSpec(dir, "ref.jsonl")
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	s, err := jobs.New(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(smallSpec(dir, "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateDone || final.ExitCode != 0 || final.Attempts != 1 {
		t.Fatalf("job finished %+v, want done/0/1 attempt", final)
	}
	if final.Report == nil || final.Report.Status != telemetry.StatusOK || final.Report.Trials.Executed != 30 {
		t.Fatalf("job report: %+v", final.Report)
	}
	got, err := os.ReadFile(filepath.Join(dir, "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("supervised job's bytes differ from the direct run")
	}
}

// TestSupervisorSubmitRejectsBadSpecs: validation and plan compilation
// refuse at admission, with the rejection counted.
func TestSupervisorSubmitRejectsBadSpecs(t *testing.T) {
	telemetry.Enable()
	rejBase := telemetry.Jobs().Rejected.Load()
	s, err := jobs.New(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	if _, err := s.Submit(jobs.Spec{Out: "x"}); err == nil {
		t.Fatal("empty spec admitted")
	}
	if _, err := s.Submit(jobs.Spec{Exps: []string{"T99"}, Out: "x"}); err == nil {
		t.Fatal("unknown experiment admitted")
	}
	// Flags that parse but configure trials that cannot run: an unknown
	// seed schedule, and a value outside the domain.
	for _, config := range [][]string{
		{"-schedule", "7"},
		{"-values", "9", "-domain", "4"},
	} {
		if _, err := s.Submit(jobs.Spec{Trials: 5, Config: config, Out: "x"}); err == nil {
			t.Fatalf("trials config %q admitted", config)
		}
	}
	if got := telemetry.Jobs().Rejected.Load() - rejBase; got != 4 {
		t.Fatalf("rejected counter moved by %d, want 4", got)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused specs created jobs: %+v", jobs)
	}
}

// TestSupervisorRetriesTransientThenSucceeds: transient (exit-3) failures
// retry under the backoff window and the job completes; attempts and
// retries are visible in telemetry and the job record.
func TestSupervisorRetriesTransientThenSucceeds(t *testing.T) {
	telemetry.Enable()
	m := telemetry.Jobs()
	retryBase := m.Retries.Load()
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{
		MaxAttempts: 5,
		Backoff:     backoff.Window{Base: time.Millisecond, Cap: 2 * time.Millisecond},
		Run:         chaos.FailAttempts(jobs.Execute, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(smallSpec(dir, "flaky.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateDone || final.Attempts != 3 {
		t.Fatalf("flaky job finished %+v, want done after 3 attempts", final)
	}
	if got := m.Retries.Load() - retryBase; got != 2 {
		t.Fatalf("retries counter moved by %d, want 2", got)
	}
}

// TestSupervisorCircuitBreaker: transient failures past the attempt budget
// quarantine the job instead of retrying forever.
func TestSupervisorCircuitBreaker(t *testing.T) {
	telemetry.Enable()
	quarBase := telemetry.Jobs().Quarantined.Load()
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{
		MaxAttempts: 2,
		Backoff:     backoff.Window{Base: time.Millisecond, Cap: time.Millisecond},
		Run:         chaos.FailAttempts(jobs.Execute, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(smallSpec(dir, "doomed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateQuarantined || final.Attempts != 2 || final.ExitCode != 3 {
		t.Fatalf("doomed job finished %+v, want quarantined after 2 attempts with exit 3", final)
	}
	if got := telemetry.Jobs().Quarantined.Load() - quarBase; got != 1 {
		t.Fatalf("quarantined counter moved by %d, want 1", got)
	}
}

// TestSupervisorRejectQuarantinesImmediately: a non-transient reject burns
// no retry budget — one attempt, straight to quarantine.
func TestSupervisorRejectQuarantinesImmediately(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{
		MaxAttempts: 5,
		Run:         chaos.RejectAttempts(jobs.Execute, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(smallSpec(dir, "rejected.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateQuarantined || final.Attempts != 1 || final.ExitCode != 4 {
		t.Fatalf("rejected job finished %+v, want quarantined after 1 attempt with exit 4", final)
	}
}

// TestSupervisorContainsPanics: a crash in the execution path quarantines
// the job; the supervisor survives and runs the next job to completion.
func TestSupervisorContainsPanics(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{Run: chaos.PanicAttempts(jobs.Execute, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st1, err := s.Submit(smallSpec(dir, "crash.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	final1 := waitState(t, s, st1.ID, 10*time.Second)
	if final1.State != jobs.StateQuarantined {
		t.Fatalf("crashed job finished %+v, want quarantined", final1)
	}
	st2, err := s.Submit(smallSpec(dir, "after.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if final2 := waitState(t, s, st2.ID, 10*time.Second); final2.State != jobs.StateDone {
		t.Fatalf("job after the crash finished %+v, want done — supervisor did not survive", final2)
	}
}

// TestSupervisorDedupAgainstRunning: resubmitting the spec of the job
// currently executing coalesces onto it instead of queueing a duplicate.
func TestSupervisorDedupAgainstRunning(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	spec := slowSpec(dir, "slow.jsonl")
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then resubmit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := s.Job(st.ID)
		if cur.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Fatalf("duplicate of the running job got a new ID %d (running %d)", again.ID, st.ID)
	}
	waitState(t, s, st.ID, 30*time.Second)
}

// TestSupervisorCancel: canceling a queued job removes it; canceling the
// running one drains its sweep and leaves a durable resumable prefix.
func TestSupervisorCancel(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	running, err := s.Submit(slowSpec(dir, "running.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(smallSpec(dir, "queued.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Cancel(queued.ID); err != nil || st.State != jobs.StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	// Let the running job stream some records, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(filepath.Join(dir, "running.jsonl")); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running job never wrote a record")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, running.ID, 10*time.Second)
	if final.State != jobs.StateCanceled {
		t.Fatalf("canceled running job finished %+v, want canceled", final)
	}
	// The canceled job's prefix is durable and resumable: executing the
	// same spec finishes the file byte-identically to an uninterrupted run.
	ref := slowSpec(dir, "ref.jsonl")
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	spec := slowSpec(dir, "running.jsonl")
	if _, err := jobs.Execute(context.Background(), spec, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(ref.Out)
	got, _ := os.ReadFile(spec.Out)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed canceled job differs from the uninterrupted run")
	}
}

// TestSupervisorDrainCheckpointsAndRestartCompletes: a drain mid-job parks
// it Checkpointed with the manifest persisted; a fresh supervisor over the
// same directory re-admits and finishes it, byte-identical to an
// uninterrupted run. This is the in-process face of the CI daemon soak.
func TestSupervisorDrainCheckpointsAndRestartCompletes(t *testing.T) {
	dir := t.TempDir()
	ref := slowSpec(dir, "ref.jsonl")
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(dir, "state")
	if err := os.Mkdir(state, 0o755); err != nil {
		t.Fatal(err)
	}
	s1, err := jobs.New(jobs.Options{Dir: state})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	spec := slowSpec(dir, "job.jsonl")
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Drain once the job has durable progress.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(spec.Out); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never wrote a record")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	parked, _ := s1.Job(st.ID)
	if parked.State != jobs.StateCheckpointed && parked.State != jobs.StateDone {
		t.Fatalf("drained job in state %s, want checkpointed (or done on a very fast machine)", parked.State)
	}
	if _, err := os.Stat(filepath.Join(state, jobs.ManifestName)); err != nil {
		t.Fatalf("manifest not persisted: %v", err)
	}
	if _, err := s1.Submit(smallSpec(dir, "late.jsonl")); err == nil {
		t.Fatal("draining supervisor accepted a submission")
	}

	if parked.State == jobs.StateCheckpointed {
		s2, err := jobs.New(jobs.Options{Dir: state})
		if err != nil {
			t.Fatal(err)
		}
		s2.Start()
		final := waitState(t, s2, st.ID, 30*time.Second)
		if final.State != jobs.StateDone {
			t.Fatalf("restarted job finished %+v, want done", final)
		}
		if err := s2.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpointed-then-restarted job differs from the uninterrupted run")
	}
}

// TestSupervisorKillRestartSoak: the SIGKILL shape — a manifest recording a
// RUNNING job next to a shard file torn mid-line (no drain ever ran). A
// fresh supervisor must re-admit the job, salvage the torn file's valid
// prefix, and finish byte-identical to an uninterrupted run.
func TestSupervisorKillRestartSoak(t *testing.T) {
	dir := t.TempDir()
	ref := smallSpec(dir, "ref.jsonl")
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(dir, "state")
	if err := os.Mkdir(state, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(dir, "killed.jsonl")
	// The kill artifact: a mid-line torn shard file...
	cut := len(want)/2 + 3
	if err := os.WriteFile(spec.Out, want[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and a manifest frozen with the job mid-run (the documented
	// jobs.manifest.json format a killed daemon leaves behind).
	manifest := map[string]any{
		"schema":  1,
		"next_id": 1,
		"jobs": []map[string]any{{
			"id":          1,
			"fingerprint": spec.Fingerprint(),
			"state":       "running",
			"attempts":    1,
			"spec": map[string]any{
				"trials": spec.Trials,
				"config": spec.Config,
				"shard":  0, "shards": 1,
				"out": spec.Out,
			},
		}},
	}
	b, err := json.Marshal(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, jobs.ManifestName), b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := jobs.New(jobs.Options{Dir: state})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	final := waitState(t, s, 1, 10*time.Second)
	if final.State != jobs.StateDone {
		t.Fatalf("recovered job finished %+v, want done", final)
	}
	got, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("killed-and-restarted job differs from the uninterrupted run")
	}
	if final.Report == nil || final.Report.Trials.Salvaged == 0 {
		t.Fatalf("recovery did not salvage the torn prefix: %+v", final.Report)
	}
}

// TestSupervisorEvictionCancelsJob: eviction from the bounded queue is
// visible as a canceled job with the eviction reason.
func TestSupervisorEvictionCancelsJob(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.New(jobs.Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: jobs stay queued, so eviction is deterministic.
	first, err := s.Submit(smallSpec(dir, "a.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallSpec(dir, "b.jsonl")); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Job(first.ID)
	if st.State != jobs.StateCanceled || st.Error == "" {
		t.Fatalf("evicted job: %+v, want canceled with a reason", st)
	}
	s.Start()
	if fin := waitState(t, s, first.ID+1, 10*time.Second); fin.State != jobs.StateDone {
		t.Fatalf("surviving job finished %+v, want done", fin)
	}
	s.Drain(context.Background())
}
