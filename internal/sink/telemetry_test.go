package sink

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/telemetry"
)

// TestJSONLTelemetryCounters: the sink's counters track the byte stream
// exactly — records, bytes, the quarantined subset, and timed flushes.
func TestJSONLTelemetryCounters(t *testing.T) {
	telemetry.Enable()
	sm := telemetry.SinkIO()
	recB, byteB, quarB := sm.Records.Load(), sm.Bytes.Load(), sm.Quarantined.Load()
	flushB, flushNsB := sm.Flushes.Load(), sm.FlushNs.Count()

	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Exp = "telemetry"
	for i := 0; i < 4; i++ {
		res := sim.Result{Index: i, Name: "sink/tel", Seed: int64(i), Rounds: 7,
			AllDecided: true, DecidedValues: []model.Value{1}}
		if i == 3 {
			res.Err = errors.New("boom")
		}
		if err := j.Consume(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sm.Records.Load() - recB; got != 4 {
		t.Fatalf("sink.records advanced %d, want 4", got)
	}
	if got := sm.Bytes.Load() - byteB; got != uint64(buf.Len()) {
		t.Fatalf("sink.bytes advanced %d, wrote %d bytes", got, buf.Len())
	}
	if got := sm.Quarantined.Load() - quarB; got != 1 {
		t.Fatalf("sink.records.quarantined advanced %d, want 1", got)
	}
	if got := sm.Flushes.Load() - flushB; got != 1 {
		t.Fatalf("sink.flushes advanced %d, want 1", got)
	}
	if got := sm.FlushNs.Count() - flushNsB; got != 1 {
		t.Fatalf("sink.flush_ns observed %d flushes, want 1", got)
	}
}

// TestJSONLConsumeAllocsWithTelemetryLive repeats the steady-state
// zero-allocation contract with the counters live: the telemetry hooks in
// WriteRecord are atomic ops only.
func TestJSONLConsumeAllocsWithTelemetryLive(t *testing.T) {
	telemetry.Enable()
	grid := testGrid()
	params := make([]Params, len(grid))
	for i, s := range grid {
		params[i] = ParamsOf(s)
	}
	j := NewJSONL(io.Discard)
	j.Exp = "alloc"
	j.Params = func(i int) Params { return params[i%len(params)] }
	res := sim.Result{
		Index: 0, Name: "sink/trial", Seed: 42, Rounds: 100, AllDecided: true,
		Decisions: 4, DecidedValues: []model.Value{3}, LastDecisionRound: 99,
		AgreementOK: true, ValidityOK: true, TerminationOK: true,
	}
	for i := 0; i < len(params); i++ {
		res.Index = i
		if err := j.Consume(res); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res.Index = i % len(params)
		i++
		if err := j.Consume(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("with telemetry live, JSONL.Consume allocates %.1f times per record, want 0", allocs)
	}
}
