package sink

import "adhocconsensus/internal/sim"

// Sink consumes per-trial results as a sweep produces them. It is the same
// contract as sim.ResultSink (every Sink IS a sim.ResultSink): results
// arrive strictly in ascending sweep-index order and Consume is never
// called concurrently, so implementations need no locking.
type Sink interface {
	Consume(r sim.Result) error
}

// Flusher is implemented by sinks that buffer output. Callers must Flush
// (or use the Flush helper) after the sweep completes; the buffered JSONL
// sink loses its tail otherwise.
type Flusher interface {
	Flush() error
}

// Flush flushes s if it buffers, and is a no-op otherwise.
func Flush(s Sink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Compile-time checks that every sink satisfies the runner's interface.
var (
	_ sim.ResultSink = (*Memory)(nil)
	_ sim.ResultSink = (Fanout)(nil)
	_ sim.ResultSink = (*JSONL)(nil)
)

// Memory collects results in order — the in-process aggregation behavior
// Runner.Sweep has always had, as a Sink.
type Memory struct {
	Results []sim.Result
}

// Consume implements Sink.
func (m *Memory) Consume(r sim.Result) error {
	m.Results = append(m.Results, r)
	return nil
}

// Fanout delivers every result to multiple sinks in order — e.g. stream
// JSONL to disk while also aggregating in memory. The first sink error
// stops the fan-out for that result and is returned.
type Fanout []Sink

// Consume implements Sink.
func (f Fanout) Consume(r sim.Result) error {
	for _, s := range f {
		if err := s.Consume(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every buffering member, returning the first error after
// attempting all of them.
func (f Fanout) Flush() error {
	var first error
	for _, s := range f {
		if err := Flush(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}
