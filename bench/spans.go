package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanName names a span; spans store the index so the span store holds no
// pointers for the collector to scan.
type spanName uint8

const (
	spanTrial spanName = iota
	spanMaterialize
	spanEngineRun
	spanDigest
	spanSinkWrite
	spanSinkFlush
	spanExecute
	spanRunTrial
	spanSweepOne
	spanSweepAll
	spanReplay
	spanRunFull
	spanRunDecisions
	spanValidate
	spanJob
	spanQueueWait
	spanJobRun
	spanBuildSegments
	spanSalvage
	spanStream
	spanReport
	// The engine components a sampled trial times, one span per round each.
	spanCM
	spanObserve
	spanMessage
	spanPlan
	spanTransition
)

var spanNames = [...]string{
	"trial", "sim.materialize", "engine.run", "sim.digest", "sink.write_record", "sink.flush",
	"jobs.execute", "sim.run_trial", "sim.sweep_w1", "sim.sweep_wnproc",
	"replay", "engine.run_full", "engine.run_decisions", "model.validate",
	"job", "jobs.queue_wait", "jobs.run", "jobs.build_segments", "jobs.salvage", "jobs.stream", "jobs.report",
	"cm.advise", "cm.observe", "core.message", "loss.plan", "core.transition",
}

// span is one timed interval of the traced run, in nanoseconds since the
// tracer's epoch. A component span aggregates one round's calls of one
// component: Start is the first call's start, End the last call's end, Busy
// the time inside the calls.
type span struct {
	Start, End, Busy     int64
	Parent, Trial, Calls int32
	Name                 spanName
}

// chunkBits sizes the span store's chunks; chunks are never copied, so a
// growing store does not stall a timed interval.
const chunkBits = 16

// tracer keeps spans in memory until the run ends. Spans are added from one
// goroutine; now may be read from any.
type tracer struct {
	epoch time.Time
	// clock is the cost of one clock read; callCost is the cost a timed call
	// adds to its caller (two clock reads and the bookkeeping).
	clock, callCost int64
	chunks          [][]span
	n               int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.clock = bestOf(func() { t.now() })
	scratch := &tracer{epoch: t.epoch}
	p := newProbe(scratch, -1, true, true)
	t.callCost = bestOf(func() { s := scratch.now(); p.record(compCM, 1, s, scratch.now()) })
	return t
}

// bestOf is the per-call cost of fn: the best of several loops.
func bestOf(fn func()) int64 {
	best := int64(math.MaxInt64)
	for range 7 {
		s := time.Now()
		for range 1000 {
			fn()
		}
		best = min(best, time.Since(s).Nanoseconds()/1000)
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(id int32) *span { return &t.chunks[id>>chunkBits][id&(1<<chunkBits-1)] }

// reserve allocates chunks for n more spans ahead of a timed phase.
func (t *tracer) reserve(n int) {
	for (len(t.chunks) << chunkBits) < int(t.n)+n {
		t.chunks = append(t.chunks, make([]span, 1<<chunkBits))
	}
}

func (t *tracer) push(s span) int32 {
	t.reserve(1)
	id := t.n
	*t.at(id) = s
	t.n++
	return id
}

func (t *tracer) begin(name spanName, parent int32, trial int) int32 {
	return t.push(span{Name: name, Parent: parent, Trial: int32(trial), Start: t.now()})
}

// end closes a span and returns its duration less one clock read.
func (t *tracer) end(id int32) int64 {
	e := t.now()
	s := t.at(id)
	s.End = e
	return e - s.Start - t.clock
}

// add records a span measured elsewhere.
func (t *tracer) add(name spanName, parent int32, start, end int64) int32 {
	return t.push(span{Name: name, Parent: parent, Trial: -1, Start: start, End: end})
}

// write stores the spans as JSON lines: id, parent (-1 at a root), name,
// trial (-1 outside a trial), start_ns, end_ns, and for component spans
// busy_ns and calls.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var b []byte
	for id := int32(0); id < t.n; id++ {
		s := t.at(id)
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.Name]...)
		b = append(b, `","trial":`...)
		b = strconv.AppendInt(b, int64(s.Trial), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		if s.Calls > 0 {
			b = append(b, `,"busy_ns":`...)
			b = strconv.AppendInt(b, s.Busy, 10)
			b = append(b, `,"calls":`...)
			b = strconv.AppendInt(b, int64(s.Calls), 10)
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
