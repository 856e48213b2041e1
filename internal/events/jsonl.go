package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"adhocconsensus/internal/telemetry"
)

// AppendEvent appends e as one JSONL line (newline included) to dst,
// mirroring the Event JSON tags. Hand-rolled like the sink's record
// encoder so the exporter does not allocate per line; both quote strings
// with AppendJSONString.
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, e.TimeNs, 10)
	dst = append(dst, `,"ev":`...)
	dst = AppendJSONString(dst, e.Type)
	if e.Span != 0 {
		dst = append(dst, `,"span":`...)
		dst = strconv.AppendUint(dst, e.Span, 10)
	}
	if e.Parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, e.Parent, 10)
	}
	if e.Job != 0 {
		dst = append(dst, `,"job":`...)
		dst = strconv.AppendInt(dst, e.Job, 10)
	}
	if e.Seg != "" {
		dst = append(dst, `,"seg":`...)
		dst = AppendJSONString(dst, e.Seg)
	}
	if e.Trial != NoTrial {
		dst = append(dst, `,"trial":`...)
		dst = strconv.AppendInt(dst, e.Trial, 10)
	}
	if e.N != 0 {
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, e.N, 10)
	}
	if e.Cause != "" {
		dst = append(dst, `,"cause":`...)
		dst = AppendJSONString(dst, e.Cause)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// AppendJSONString appends s to b as a JSON string: quote and backslash
// are escaped, control bytes take the \u00XX form, and every other byte
// passes through verbatim (valid UTF-8 needs no escaping in JSON; a decoder
// reads an invalid byte as U+FFFD). The shard and journal encoders share
// it, so each line they write parses with encoding/json.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// ParseEvent decodes one JSONL line. Absent trial fields decode to
// NoTrial, not zero.
func ParseEvent(line []byte) (Event, error) {
	e := Event{Trial: NoTrial}
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, err
	}
	if e.Type == "" {
		return Event{}, fmt.Errorf("events: line has no ev field")
	}
	return e, nil
}

// ReadEvents decodes a persisted journal stream. A failing line is named by
// its 1-based position in the stream, blank lines counted.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			return out, fmt.Errorf("events: line %d: %w", n, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// ReadEventsFile reads a persisted journal by path.
func ReadEventsFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEvents(f)
}

// CountTypes tallies events by type — the reconciliation primitive tests
// and tools use against a run report's counters.
func CountTypes(evs []Event) map[string]int {
	out := make(map[string]int)
	for _, e := range evs {
		out[e.Type]++
	}
	return out
}

// Export persists one execution attempt's journal to a JSONL file next to
// the run report. It subscribes in blocking mode — the durable record is
// lossless by construction — and filters to a single job ID, so a daemon
// journal shared across jobs exports only the attempt it brackets. The
// file is truncated per attempt, matching the shard file and run report's
// attempt-scoped semantics.
type Export struct {
	sub      *Subscription
	f        *os.File
	w        *bufio.Writer
	buf      []byte
	job      int64
	err      error
	finished chan struct{}
}

// StartExport begins exporting j's events for job to path. On a nil
// journal it returns (nil, nil); a nil *Export is safe to Close.
func StartExport(j *Journal, path string, job int64) (*Export, error) {
	if j == nil {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	x := &Export{
		sub:      j.Subscribe(4096, true),
		f:        f,
		w:        bufio.NewWriterSize(f, 32*1024),
		buf:      make([]byte, 0, 512),
		job:      job,
		finished: make(chan struct{}),
	}
	go x.loop()
	return x, nil
}

func (x *Export) loop() {
	defer close(x.finished)
	for {
		select {
		case e := <-x.sub.C():
			x.write(e)
		case <-x.sub.Done():
			// Drain what was buffered before Close, then finish. Emissions
			// ordered before Close are already in the channel: delivery is
			// synchronous in the emitting goroutine.
			for {
				select {
				case e := <-x.sub.C():
					x.write(e)
				default:
					x.finish()
					return
				}
			}
		}
	}
}

func (x *Export) write(e Event) {
	if e.Job != x.job || x.err != nil {
		return
	}
	x.buf = AppendEvent(x.buf[:0], e)
	if _, err := x.w.Write(x.buf); err != nil {
		x.err = err
		return
	}
	telemetry.Events().Persisted.Inc()
}

func (x *Export) finish() {
	if err := x.w.Flush(); err != nil && x.err == nil {
		x.err = err
	}
	if err := x.f.Close(); err != nil && x.err == nil {
		x.err = err
	}
}

// Close stops the export, drains buffered events, flushes, and returns
// the first write error. Events emitted before Close (in the same or a
// happens-before-ordered goroutine) are guaranteed on disk.
func (x *Export) Close() error {
	if x == nil {
		return nil
	}
	x.sub.Close()
	<-x.finished
	return x.err
}
