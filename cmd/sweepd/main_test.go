package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/telemetry"
)

// syncBuffer lets the daemon goroutine write info output while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon main loop on a loopback port and returns its
// base URL plus a shutdown function that triggers the drain path (the
// in-process face of SIGTERM) and returns run's error.
func startDaemon(t *testing.T, dir string, extraArgs ...string) (baseURL string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, extraArgs...)
	go func() { errCh <- run(ctx, args, out) }()

	// The daemon prints its bound address once the listener is up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := out.String(); strings.Contains(s, "on http://") {
			addr := strings.TrimPrefix(s[strings.Index(s, "on http://"):], "on http://")
			addr = strings.Fields(addr)[0]
			baseURL = "http://" + addr
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return baseURL, func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain within 30s")
			return nil
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, baseURL string, id int64, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st jobs.Status
		getJSON(t, fmt.Sprintf("%s/jobs/%d", baseURL, id), &st)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonLifecycle drives the full HTTP surface: submit, dedup, status
// with the run report attached, list, metrics on the same listener, cancel
// of a queued job, and a clean drain — with the finished job's bytes
// byte-identical to a direct uninterrupted execution of the same spec.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)

	// Reference bytes: the same spec executed directly, to a different file.
	ref := jobs.Spec{
		Trials: 30,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, "ref.jsonl"),
	}
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	spec := ref
	spec.Out = filepath.Join(dir, "job.jsonl")
	resp, body := postJSON(t, baseURL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s\n%s", resp.Status, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	final := waitDone(t, baseURL, st.ID, 30*time.Second)
	if final.State != jobs.StateDone || final.ExitCode != 0 {
		t.Fatalf("job finished %+v, want done/0", final)
	}
	if final.Report == nil || final.Report.Status != telemetry.StatusOK || final.Report.Trials.Executed != 30 {
		t.Fatalf("status document carries no usable run report: %+v", final.Report)
	}
	got, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("daemon job bytes differ from a direct run")
	}

	// An invalid spec is refused with a reason, not quarantined later.
	respBad, bodyBad := postJSON(t, baseURL+"/jobs", jobs.Spec{Out: "x"})
	if respBad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec: %s\n%s", respBad.Status, bodyBad)
	}

	// List shows the job; /metrics shares the listener and carries the jobs
	// counters; unknown IDs 404.
	var list []jobs.Status
	getJSON(t, baseURL+"/jobs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
	var metrics map[string]any
	getJSON(t, baseURL+"/metrics", &metrics)
	if v, ok := metrics["jobs.completed"].(float64); !ok || v < 1 {
		t.Fatalf("metrics jobs.completed = %v", metrics["jobs.completed"])
	}
	if resp := getJSON(t, baseURL+"/jobs/999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %s", resp.Status)
	}
	var health map[string]any
	getJSON(t, baseURL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

// TestDaemonCancelEndpoint cancels a queued job over HTTP.
func TestDaemonCancelEndpoint(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)

	slow := jobs.Spec{
		Trials: 20000,
		Config: []string{"-alg", "bitbybit", "-loss", "prob", "-p", "0.4", "-seed", "7"},
		Out:    filepath.Join(dir, "slow.jsonl"),
	}
	_, body := postJSON(t, baseURL+"/jobs", slow)
	var running jobs.Status
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	// A duplicate of the in-flight spec coalesces: same job ID back. (The
	// slow job runs ~0.5s, so it cannot have finished yet.)
	_, body = postJSON(t, baseURL+"/jobs", slow)
	var dup jobs.Status
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != running.ID {
		t.Fatalf("duplicate got job %d, want coalesce onto %d", dup.ID, running.ID)
	}
	queued := slow
	queued.Out = filepath.Join(dir, "queued.jsonl")
	_, body = postJSON(t, baseURL+"/jobs", queued)
	var qst jobs.Status
	if err := json.Unmarshal(body, &qst); err != nil {
		t.Fatal(err)
	}

	resp, cbody := postJSON(t, fmt.Sprintf("%s/jobs/%d/cancel", baseURL, qst.ID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s\n%s", resp.Status, cbody)
	}
	if st := waitDone(t, baseURL, qst.ID, 10*time.Second); st.State != jobs.StateCanceled {
		t.Fatalf("canceled job finished %+v, want canceled", st)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// TestDaemonDrainAndRestartResumes is the in-process restart story: drain a
// daemon mid-job (SIGTERM's code path), start a fresh daemon over the same
// state directory, and the checkpointed job completes byte-identical to an
// uninterrupted run.
func TestDaemonDrainAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	if err := os.Mkdir(state, 0o755); err != nil {
		t.Fatal(err)
	}

	ref := jobs.Spec{
		Trials: 20000,
		Config: []string{"-alg", "bitbybit", "-loss", "prob", "-p", "0.4", "-seed", "9"},
		Out:    filepath.Join(dir, "ref.jsonl"),
	}
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	baseURL, shutdown := startDaemon(t, state)
	spec := ref
	spec.Out = filepath.Join(dir, "job.jsonl")
	_, body := postJSON(t, baseURL+"/jobs", spec)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
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
	if err := shutdown(); err != nil {
		t.Fatalf("drain returned %v", err)
	}

	baseURL2, shutdown2 := startDaemon(t, state)
	final := waitDone(t, baseURL2, st.ID, 60*time.Second)
	if final.State != jobs.StateDone {
		t.Fatalf("restarted job finished %+v, want done", final)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second drain returned %v", err)
	}
	got, err := os.ReadFile(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("drained-and-restarted job differs from the uninterrupted run")
	}
}

// TestDaemonRejectsOversizedSpec: POST /jobs reads at most maxSpecBytes.
// A larger body gets 413 and admits no job; a normal spec is still
// accepted.
func TestDaemonRejectsOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()

	values := strings.Repeat("1,", maxSpecBytes/2) + "1"
	big, err := json.Marshal(jobs.Spec{
		Trials: 5,
		Config: []string{"-values", values},
		Out:    filepath.Join(dir, "big.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= maxSpecBytes {
		t.Fatalf("test spec is %d bytes, not over the %d-byte cap", len(big), maxSpecBytes)
	}
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: %s, want 413\n%s", resp.Status, body)
	}
	var list []jobs.Status
	getJSON(t, baseURL+"/jobs", &list)
	if len(list) != 0 {
		t.Fatalf("oversized spec admitted a job: %+v", list)
	}

	resp, body = postJSON(t, baseURL+"/jobs", jobs.Spec{
		Trials: 5,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, "small.jsonl"),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal spec: %s, want 202\n%s", resp.Status, body)
	}
}

// TestExitcodesFlag prints the shared table.
func TestExitcodesFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exitcodes"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0  success", "5  clean interrupt", "sweepd"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exit-code table missing %q:\n%s", want, buf.String())
		}
	}
}
