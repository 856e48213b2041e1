// The query-and-streaming face of the daemon: the SSE event stream, the
// replay-rendered results view, and the flagged-trial drilldown. These
// handlers are strictly read-only observers of the job pipeline — they read
// the journal ring, the persisted journal, and the shard files; they never
// touch the execution path, so a watched job's output stays byte-identical
// to an unwatched one's.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sink"
)

// sseTick is how often the event stream polls the shard file for newly
// durable records and re-checks the job's state. Journal events do not wait
// on it — they stream as the subscription delivers them.
const sseTick = 150 * time.Millisecond

// sseEndGrace bounds how long the stream waits, after observing a terminal
// job state, for the closing journal events (segment/job span ends) to
// arrive before it finishes with eof.
const sseEndGrace = time.Second

// sseStream frames server-sent events onto one response. Data payloads are
// single JSONL lines (journal events, sink records) — never multi-line.
type sseStream struct {
	w  io.Writer
	fl http.Flusher
}

func (s *sseStream) event(typ string, data []byte) {
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", typ, bytes.TrimRight(data, "\n"))
}

func (s *sseStream) eof(state jobs.State) {
	s.event("eof", []byte(fmt.Sprintf(`{"state":%q}`, state)))
	s.fl.Flush()
}

// shardTail follows a shard file's growth, returning only complete appended
// lines — a half-written record line stays invisible until its newline
// lands. A missing file (job not started) reads as no lines; a file whose
// size shrank (a resume truncated a torn tail we never emitted) clamps the
// offset instead of re-reading.
type shardTail struct {
	path string
	off  int64
}

func (t *shardTail) read() [][]byte {
	f, err := os.Open(t.path)
	if err != nil {
		return nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil
	}
	size := fi.Size()
	if size <= t.off {
		if size < t.off {
			t.off = size
		}
		return nil
	}
	b := make([]byte, size-t.off)
	if _, err := io.ReadFull(io.NewSectionReader(f, t.off, size-t.off), b); err != nil {
		return nil
	}
	last := bytes.LastIndexByte(b, '\n')
	if last < 0 {
		return nil
	}
	t.off += int64(last + 1)
	return bytes.Split(b[:last], []byte("\n"))
}

// handleEvents is GET /jobs/{id}/events: one SSE connection carrying the
// job's journal events ("event: journal") and its per-trial records
// ("event: record") as they become durable, with "event: lagged" marking
// journal events the slow-consumer policy dropped and "event: eof" closing
// the stream when the job is terminal. A terminal job replays its persisted
// journal and shard file instead — subscribing after completion still
// yields the full narrative.
func handleEvents(w http.ResponseWriter, r *http.Request, sup *jobs.Supervisor, id int64, sseBuf int) {
	st, ok := sup.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s := &sseStream{w: w, fl: fl}
	tail := &shardTail{path: st.Spec.Out}

	if st.State.Terminal() {
		// The live journal has moved on (or was never up); the durable
		// export next to the shard file is the record of the job's last
		// attempt.
		if evs, err := events.ReadEventsFile(st.Spec.Out + ".events.jsonl"); err == nil {
			var buf []byte
			for _, e := range evs {
				buf = events.AppendEvent(buf[:0], e)
				s.event("journal", buf)
			}
		}
		for _, line := range tail.read() {
			s.event("record", line)
		}
		s.eof(st.State)
		return
	}

	// Live: history from the ring first (admit and earlier spans the client
	// missed), then the subscription. Follow registers before it snapshots,
	// so the two overlap rather than gap; lastSeq dedupes the overlap.
	jal := events.Active()
	var snap []events.Event
	var sub *events.Subscription
	if jal != nil {
		snap, sub = jal.Follow(sseBuf)
		defer sub.Close()
	}
	var lastSeq, lastDropped uint64
	var buf []byte
	emit := func(e events.Event) {
		if e.Job != id || e.Seq <= lastSeq {
			return
		}
		lastSeq = e.Seq
		buf = events.AppendEvent(buf[:0], e)
		s.event("journal", buf)
	}
	for _, e := range snap {
		emit(e)
	}
	fl.Flush()

	subC := sub.C() // nil channel (blocks forever) when journaling is off
	tick := time.NewTicker(sseTick)
	defer tick.Stop()
	var endBy <-chan time.Time // armed when the job goes terminal
	endState := st.State
	for {
		select {
		case <-r.Context().Done():
			return
		case <-endBy:
			for _, line := range tail.read() {
				s.event("record", line)
			}
			s.eof(endState)
			return
		case e := <-subC:
			emit(e)
			for more := true; more; {
				select {
				case e := <-subC:
					emit(e)
				default:
					more = false
				}
			}
			fl.Flush()
		case <-tick.C:
			for _, line := range tail.read() {
				s.event("record", line)
			}
			if d := sub.Dropped(); d > lastDropped {
				s.event("lagged", []byte(fmt.Sprintf(`{"dropped":%d}`, d-lastDropped)))
				lastDropped = d
			}
			if cur, ok := sup.Job(id); !ok || cur.State.Terminal() {
				if endBy == nil {
					if ok {
						endState = cur.State
					}
					endBy = time.After(sseEndGrace)
				}
			}
			fl.Flush()
		}
	}
}

// handleResults is GET /jobs/{id}/results: the shard file's records
// rendered by cli.RenderGroup, the renderer behind "sweeprun replay" —
// experiment tables, trial statistics and seed provenance without
// re-simulation. ?quiet collapses each group to its one-line summary.
// Records that cannot render yet (incomplete shard of a wider sweep, no
// records durable) answer 422/404 with the reason.
func handleResults(w http.ResponseWriter, r *http.Request, sup *jobs.Supervisor, id int64) {
	st, ok := sup.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	recs, err := readShard(st.Spec.Out)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var b bytes.Buffer
	run := replay.Group(recs)
	for _, name := range run.Order {
		if _, err := cli.RenderGroup(&b, name, run.Groups[name], r.URL.Query().Has("quiet")); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("%s: %w", name, err))
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// handleFlagged is GET /jobs/{id}/flagged: the recorded trials worth a
// second look, selected by ?flag= (default "quarantined,undecided,
// violations" — the record-level selectors; quarantined trials carry no
// digest, which is why they are inspected here rather than re-executed by
// "sweeprun verify").
func handleFlagged(w http.ResponseWriter, r *http.Request, sup *jobs.Supervisor, id int64) {
	st, ok := sup.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	spec := r.URL.Query().Get("flag")
	if spec == "" {
		spec = "quarantined,undecided,violations"
	}
	sel, err := replay.ParseSelector(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	recs, err := readShard(st.Spec.Out)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type flaggedDoc struct {
		Index   int         `json:"index"`
		Reasons []string    `json:"reasons"`
		Record  sink.Record `json:"record"`
	}
	fl := replay.FlagRecords(recs, sel)
	docs := make([]flaggedDoc, 0, len(fl))
	for _, f := range fl {
		docs = append(docs, flaggedDoc{Index: f.Rec.Index, Reasons: f.Reasons, Record: f.Rec})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job": id, "flag": spec, "count": len(docs), "flagged": docs,
	})
}

// readShard reads a job's durable records, salvage-style: the valid prefix
// of the shard file, ignoring a torn tail a running job may be mid-write.
func readShard(path string) ([]sink.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("no durable records yet: %w", err)
	}
	defer f.Close()
	recs, _, _ := sink.ReadRecordsPartial(f)
	if len(recs) == 0 {
		return nil, errors.New("no durable records yet")
	}
	return recs, nil
}

// jobID parses the {id} path value shared by the per-job routes.
func jobID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad job id %q", r.PathValue("id"))
	}
	return id, nil
}
