package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// frame is one parsed SSE frame.
type frame struct {
	typ  string
	data string
}

// readFrames consumes an SSE body until stop returns true or the reader
// ends, returning every frame seen.
func readFrames(t *testing.T, r *bufio.Scanner, stop func(frame) bool) []frame {
	t.Helper()
	var frames []frame
	var cur frame
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.typ == "" && cur.data == "" {
				continue
			}
			frames = append(frames, cur)
			done := stop(cur)
			cur = frame{}
			if done {
				return frames
			}
		}
	}
	return frames
}

func openStream(t *testing.T, ctx context.Context, url string) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return resp, sc
}

// TestJobsListOrder: GET /jobs returns jobs in admission-sequence order —
// deterministic across calls, first-admitted first.
func TestJobsListOrder(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()

	var ids []int64
	for _, name := range []string{"c.jsonl", "a.jsonl", "b.jsonl"} {
		spec := jobs.Spec{
			Trials: 5,
			Config: []string{"-alg", "propose", "-seed", "11"},
			Out:    filepath.Join(dir, name),
		}
		resp, body := postJSON(t, baseURL+"/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %s\n%s", name, resp.Status, body)
		}
		var st jobs.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for try := 0; try < 3; try++ { // deterministic: same order every call
		var list []jobs.Status
		getJSON(t, baseURL+"/jobs", &list)
		if len(list) != len(ids) {
			t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
		}
		for i, st := range list {
			if st.ID != ids[i] {
				t.Fatalf("list[%d] = job %d, want admission order %v", i, st.ID, ids)
			}
		}
	}
}

// TestDaemonEventStreamLive tails a running job over one SSE connection: the
// journal narrative arrives in seq order, per-trial records arrive as they
// become durable, and the stream closes with eof once the job is done.
func TestDaemonEventStreamLive(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()

	spec := jobs.Spec{
		Trials: 20000,
		Config: []string{"-alg", "bitbybit", "-loss", "prob", "-p", "0.4", "-seed", "7"},
		Out:    filepath.Join(dir, "live.jsonl"),
	}
	_, body := postJSON(t, baseURL+"/jobs", spec)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, sc := openStream(t, ctx, fmt.Sprintf("%s/jobs/%d/events", baseURL, st.ID))
	defer resp.Body.Close()
	frames := readFrames(t, sc, func(f frame) bool { return f.typ == "eof" })

	var lastSeq uint64
	types := map[string]int{}
	records := 0
	var lastIndex = -1
	for _, f := range frames {
		switch f.typ {
		case "journal":
			e, err := events.ParseEvent([]byte(f.data))
			if err != nil {
				t.Fatalf("bad journal frame %q: %v", f.data, err)
			}
			if e.Seq <= lastSeq {
				t.Fatalf("journal out of order: seq %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.Job != st.ID {
				t.Fatalf("journal frame for job %d leaked into job %d's stream", e.Job, st.ID)
			}
			types[e.Type]++
		case "record":
			var rec sink.Record
			if err := json.Unmarshal([]byte(f.data), &rec); err != nil {
				t.Fatalf("bad record frame %q: %v", f.data, err)
			}
			if rec.Index != lastIndex+1 {
				t.Fatalf("record %d arrived after %d — records must stream in order", rec.Index, lastIndex)
			}
			lastIndex = rec.Index
			records++
		case "eof":
			var end struct{ State string }
			if err := json.Unmarshal([]byte(f.data), &end); err != nil {
				t.Fatal(err)
			}
			if end.State != string(jobs.StateDone) {
				t.Fatalf("eof state %q, want done", end.State)
			}
		case "lagged":
			// Acceptable under load; drops are counted, not hidden.
		default:
			t.Fatalf("unknown frame type %q", f.typ)
		}
	}
	if records != spec.Trials {
		t.Fatalf("streamed %d records, want all %d", records, spec.Trials)
	}
	for _, want := range []string{"job.admit", "job.begin", "segment.begin", "batch.begin", "segment.end", "job.end"} {
		if types[want] == 0 {
			t.Fatalf("journal stream carried no %s event: %v", want, types)
		}
	}
}

// TestDaemonEventStreamReplayAfterCompletion: subscribing after the job is
// done replays the persisted journal and the shard records, then eof —
// satellite 3's late-subscriber story.
func TestDaemonEventStreamReplayAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()

	spec := jobs.Spec{
		Trials: 30,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, "done.jsonl"),
	}
	_, body := postJSON(t, baseURL+"/jobs", spec)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, baseURL, st.ID, 30*time.Second)

	persisted, err := events.ReadEventsFile(spec.Out + ".events.jsonl")
	if err != nil {
		t.Fatalf("persisted journal: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, sc := openStream(t, ctx, fmt.Sprintf("%s/jobs/%d/events", baseURL, st.ID))
	defer resp.Body.Close()
	frames := readFrames(t, sc, func(f frame) bool { return f.typ == "eof" })

	var journal []events.Event
	records := 0
	for _, f := range frames {
		switch f.typ {
		case "journal":
			e, err := events.ParseEvent([]byte(f.data))
			if err != nil {
				t.Fatal(err)
			}
			journal = append(journal, e)
		case "record":
			records++
		}
	}
	if len(journal) != len(persisted) {
		t.Fatalf("replay streamed %d journal events, persisted file has %d", len(journal), len(persisted))
	}
	for i := range journal {
		if journal[i] != persisted[i] {
			t.Fatalf("replayed event %d = %+v, persisted %+v", i, journal[i], persisted[i])
		}
	}
	if records != spec.Trials {
		t.Fatalf("replay streamed %d records, want %d", records, spec.Trials)
	}
	if frames[len(frames)-1].typ != "eof" {
		t.Fatal("replay did not end with eof")
	}
}

// TestDaemonEventStreamClientDisconnect: a client vanishing mid-stream costs
// the daemon nothing — the job completes, the daemon stays healthy, and the
// drain is clean.
func TestDaemonEventStreamClientDisconnect(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)

	spec := jobs.Spec{
		Trials: 20000,
		Config: []string{"-alg", "bitbybit", "-loss", "prob", "-p", "0.4", "-seed", "3"},
		Out:    filepath.Join(dir, "gone.jsonl"),
	}
	_, body := postJSON(t, baseURL+"/jobs", spec)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp, sc := openStream(t, ctx, fmt.Sprintf("%s/jobs/%d/events", baseURL, st.ID))
	// Read one frame, then hang up mid-stream.
	readFrames(t, sc, func(frame) bool { return true })
	cancel()
	resp.Body.Close()

	var health map[string]any
	getJSON(t, baseURL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz after disconnect: %+v", health)
	}
	if final := waitDone(t, baseURL, st.ID, 60*time.Second); final.State != jobs.StateDone {
		t.Fatalf("job finished %s after client disconnect, want done", final.State)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// gatedWriter is an http.ResponseWriter whose Write blocks until released —
// a deterministic stand-in for a consumer too slow to drain its socket.
type gatedWriter struct {
	mu      sync.Mutex
	b       bytes.Buffer
	gate    chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{gate: make(chan struct{}), blocked: make(chan struct{})}
}
func (g *gatedWriter) Header() http.Header { return http.Header{} }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.blocked) })
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.b.Write(p)
}
func (g *gatedWriter) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.b.String()
}

// TestEventStreamSlowConsumerDrops: a consumer that cannot keep up loses
// journal events by policy, never stalls the emitters — the drops land in
// telemetry and the stream reports them with a lagged frame when the
// consumer catches back up.
func TestEventStreamSlowConsumerDrops(t *testing.T) {
	telemetry.Enable()
	jal := events.New(events.Options{})
	events.Activate(jal)
	defer events.Activate(nil)

	sup, err := jobs.New(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: the submitted job stays queued (non-terminal)
	// for as long as the test needs.
	st, err := sup.Submit(jobs.Spec{
		Trials: 5,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(t.TempDir(), "q.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}

	droppedBase := telemetry.Events().Dropped.Load()
	w := newGatedWriter()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d/events", st.ID), nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		handleEvents(w, req, sup, st.ID, 1) // subscription buffer of one
	}()

	// The admit point is already in the ring, so the handler's first frame
	// write blocks on the gate. Everything emitted now overflows its
	// one-slot subscription.
	select {
	case <-w.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never wrote the snapshot frame")
	}
	const burst = 100
	for i := 0; i < burst; i++ {
		jal.PointJob(events.TypeCheckpoint, st.ID, int64(i))
	}
	if d := telemetry.Events().Dropped.Load() - droppedBase; d < burst-2 {
		t.Fatalf("telemetry counted %d drops for a blocked consumer, want >= %d", d, burst-2)
	}
	close(w.gate) // the consumer catches up

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.String(), "event: lagged") {
		if time.Now().After(deadline) {
			t.Fatalf("no lagged frame after drops; stream so far:\n%s", w.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// TestDaemonResultsAndFlagged: /results is the shared renderer's output over
// the job's durable records — what "sweeprun replay" prints, seed provenance
// included, with no re-simulation — /flagged drills into selected trials,
// and bad input answers with the right statuses.
func TestDaemonResultsAndFlagged(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()

	spec := jobs.Spec{
		Trials: 30,
		Config: []string{"-alg", "propose", "-seed", "11"},
		Out:    filepath.Join(dir, "res.jsonl"),
	}
	_, body := postJSON(t, baseURL+"/jobs", spec)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, baseURL, st.ID, 30*time.Second)

	run, err := replay.LoadFiles(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	for _, quiet := range []bool{false, true} {
		var want bytes.Buffer
		for _, name := range run.Order {
			if _, err := cli.RenderGroup(&want, name, run.Groups[name], quiet); err != nil {
				t.Fatal(err)
			}
		}
		url := fmt.Sprintf("%s/jobs/%d/results", baseURL, st.ID)
		if quiet {
			url += "?quiet"
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results: %s\n%s", resp.Status, buf.String())
		}
		if buf.String() != want.String() {
			t.Fatalf("%s answered\n%s\nthe shared renderer prints\n%s", url, buf.String(), want.String())
		}
		if !quiet && (!strings.Contains(buf.String(), "decided   : 30/30\n") || !strings.Contains(buf.String(), "seeds     : ")) {
			t.Fatalf("results lack the trial statistics or the seed provenance:\n%s", buf.String())
		}
	}

	var flagged struct {
		Count   int `json:"count"`
		Flagged []struct {
			Index   int      `json:"index"`
			Reasons []string `json:"reasons"`
		} `json:"flagged"`
	}
	getJSON(t, fmt.Sprintf("%s/jobs/%d/flagged", baseURL, st.ID), &flagged)
	if flagged.Count != 0 {
		t.Fatalf("healthy run flagged %d trials by default: %+v", flagged.Count, flagged)
	}
	getJSON(t, fmt.Sprintf("%s/jobs/%d/flagged?flag=slowest=3", baseURL, st.ID), &flagged)
	if flagged.Count != 3 {
		t.Fatalf("slowest=3 flagged %d trials", flagged.Count)
	}
	if r := getJSON(t, fmt.Sprintf("%s/jobs/%d/flagged?flag=bogus", baseURL, st.ID), nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus selector: %s", r.Status)
	}
	if r := getJSON(t, baseURL+"/jobs/999/results", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job results: %s", r.Status)
	}
}

// TestDaemonMetricsNameFilter: /metrics?name= subsets the registry by
// prefix on the shared listener.
func TestDaemonMetricsNameFilter(t *testing.T) {
	dir := t.TempDir()
	baseURL, shutdown := startDaemon(t, dir)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("drain returned %v", err)
		}
	}()
	var metrics map[string]any
	getJSON(t, baseURL+"/metrics?name=jobs.", &metrics)
	if len(metrics) == 0 {
		t.Fatal("?name=jobs. returned nothing")
	}
	for name := range metrics {
		if !strings.HasPrefix(name, "jobs.") {
			t.Fatalf("?name=jobs. leaked %q", name)
		}
	}
}
