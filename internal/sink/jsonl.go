package sink

import (
	"bufio"
	"io"
	"strconv"
	"time"

	"adhocconsensus/internal/events"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/telemetry"
)

// JSONL streams records to a writer, one JSON object per line, in sweep
// order. The encoder is hand-rolled over reusable scratch buffers with a
// fixed field order, so steady-state Consume performs zero allocations
// (asserted in this package's tests) and the byte stream for a given sweep
// is deterministic — shard files produced by different workers can be
// compared and merged byte-exactly.
type JSONL struct {
	// Exp labels every record with the experiment (or sweep) name; merge
	// groups records by it.
	Exp string
	// Params, when non-nil, supplies the declarative parameters of the trial
	// at a global sweep index; the record carries them plus their
	// fingerprint. Precompute a Params slice when streaming large sweeps:
	// the lookup runs once per trial. When nil, records carry empty params
	// and the zero-Params fingerprint.
	Params func(index int) Params

	w       *bufio.Writer
	scratch []byte
	vals    []uint64
	fps     map[Params]string // fingerprint cache: grids repeat configurations across trials

	// The sink's own tally of the records it accepted (see Tally).
	records, quarantined int
	bytes                uint64
}

// NewJSONL returns a JSONL sink writing to w through a buffer. Call Flush
// after the sweep; the tail is lost otherwise.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
}

// Consume implements sim.ResultSink: it digests the result into a record
// and appends its line.
func (j *JSONL) Consume(r sim.Result) error {
	rec := Record{
		Index:             r.Index,
		Name:              r.Name,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.AllDecided,
		Decisions:         r.Decisions,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
	}
	if j.Params != nil {
		rec.Params = j.Params(r.Index)
	}
	rec.Fingerprint = j.fingerprint(rec.Params)
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	j.vals = j.vals[:0]
	for _, v := range r.DecidedValues {
		j.vals = append(j.vals, uint64(v))
	}
	rec.DecidedValues = j.vals
	return j.WriteRecord(rec)
}

// WriteRecord appends one pre-built record line (used by trial streams that
// did not come from a sim sweep, e.g. the public RunTrials path). Schema,
// and Exp when the sink has one, are stamped here so callers cannot write a
// mislabeled line.
func (j *JSONL) WriteRecord(rec Record) error {
	rec.Schema = Schema
	if j.Exp != "" {
		rec.Exp = j.Exp
	}
	j.scratch = appendRecord(j.scratch[:0], rec)
	n, err := j.w.Write(j.scratch)
	if err == nil {
		j.records++
		j.bytes += uint64(n)
		if rec.Err != "" {
			j.quarantined++
		}
	}
	// Telemetry observes the stream; it never alters it. All calls are
	// nil-receiver no-ops when disabled and allocation-free when enabled,
	// preserving the sink's zero-steady-state-allocation contract.
	sm := telemetry.SinkIO()
	sm.Records.Inc()
	sm.Bytes.Add(uint64(n))
	if rec.Err != "" {
		sm.Quarantined.Inc()
	}
	return err
}

// Tally reports what this sink accepted: the records whose line was
// written, how many of them were quarantine records, and their bytes. A
// refused write counts nowhere. Unlike the process-wide sink.* counters it
// is always on and belongs to this sink alone.
func (j *JSONL) Tally() (records, quarantined int, bytes uint64) {
	return j.records, j.quarantined, j.bytes
}

// Flush writes the buffered lines through to the underlying writer.
func (j *JSONL) Flush() error {
	buffered := int64(j.w.Buffered())
	sm := telemetry.SinkIO()
	if sm.FlushNs == nil {
		err := j.w.Flush()
		events.Active().Point(events.TypeFlush, events.NoTrial, buffered, "")
		return err
	}
	start := time.Now()
	err := j.w.Flush()
	sm.FlushNs.Observe(uint64(time.Since(start)))
	sm.Flushes.Inc()
	// The journal's flush point carries the bytes this flush pushed out.
	events.Active().Point(events.TypeFlush, events.NoTrial, buffered, "")
	return err
}

// fingerprint memoizes Params.Fingerprint: a sweep revisits the same
// configuration once per trial, and the hash (with its fmt formatting)
// would otherwise be the sink's only steady-state allocation.
func (j *JSONL) fingerprint(p Params) string {
	if fp, ok := j.fps[p]; ok {
		return fp
	}
	if j.fps == nil {
		j.fps = make(map[Params]string)
	}
	fp := p.Fingerprint()
	j.fps[p] = fp
	return fp
}

// appendRecord writes the record as one JSON line. The field order and
// omission rules match the Record struct's json tags exactly, so the output
// decodes through encoding/json with no loss.
func appendRecord(b []byte, rec Record) []byte {
	b = append(b, `{"schema":`...)
	b = strconv.AppendInt(b, int64(rec.Schema), 10)
	if rec.Exp != "" {
		b = append(b, `,"exp":`...)
		b = events.AppendJSONString(b, rec.Exp)
	}
	if rec.Fingerprint != "" {
		b = append(b, `,"fp":`...)
		b = events.AppendJSONString(b, rec.Fingerprint)
	}
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	if rec.Name != "" {
		b = append(b, `,"name":`...)
		b = events.AppendJSONString(b, rec.Name)
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, rec.Seed, 10)
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(rec.Rounds), 10)
	b = append(b, `,"decided":`...)
	b = strconv.AppendBool(b, rec.AllDecided)
	b = append(b, `,"decisions":`...)
	b = strconv.AppendInt(b, int64(rec.Decisions), 10)
	if len(rec.DecidedValues) > 0 {
		b = append(b, `,"values":[`...)
		for i, v := range rec.DecidedValues {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"lastround":`...)
	b = strconv.AppendInt(b, int64(rec.LastDecisionRound), 10)
	b = append(b, `,"agreement":`...)
	b = strconv.AppendBool(b, rec.AgreementOK)
	b = append(b, `,"validity":`...)
	b = strconv.AppendBool(b, rec.ValidityOK)
	b = append(b, `,"termination":`...)
	b = strconv.AppendBool(b, rec.TerminationOK)
	if rec.Err != "" {
		b = append(b, `,"err":`...)
		b = events.AppendJSONString(b, rec.Err)
	}
	if rec.Item != "" {
		b = append(b, `,"item":`...)
		b = events.AppendJSONString(b, rec.Item)
	}
	if rec.ItemParams != "" {
		b = append(b, `,"itemparams":`...)
		b = events.AppendJSONString(b, rec.ItemParams)
	}
	if rec.Out != "" {
		b = append(b, `,"out":`...)
		b = events.AppendJSONString(b, rec.Out)
	}
	b = append(b, `,"params":`...)
	b = appendParams(b, rec.Params)
	b = append(b, '}', '\n')
	return b
}

// appendParams writes the params object, omitting zero fields like the json
// tags do.
func appendParams(b []byte, p Params) []byte {
	b = append(b, '{')
	n := len(b)
	comma := func(b []byte) []byte {
		if len(b) > n {
			return append(b, ',')
		}
		return b
	}
	if p.Algorithm != "" {
		b = append(comma(b), `"alg":`...)
		b = events.AppendJSONString(b, p.Algorithm)
	}
	if p.N != 0 {
		b = append(comma(b), `"n":`...)
		b = strconv.AppendInt(b, int64(p.N), 10)
	}
	if p.Domain != 0 {
		b = append(comma(b), `"domain":`...)
		b = strconv.AppendUint(b, p.Domain, 10)
	}
	if p.IDSpace != 0 {
		b = append(comma(b), `"idspace":`...)
		b = strconv.AppendUint(b, p.IDSpace, 10)
	}
	if p.Detector != "" {
		b = append(comma(b), `"detector":`...)
		b = events.AppendJSONString(b, p.Detector)
	}
	if p.Race != 0 {
		b = append(comma(b), `"race":`...)
		b = strconv.AppendInt(b, int64(p.Race), 10)
	}
	if p.FPRate != 0 {
		b = append(comma(b), `"fprate":`...)
		b = strconv.AppendFloat(b, p.FPRate, 'g', -1, 64)
	}
	if p.CM != "" {
		b = append(comma(b), `"cm":`...)
		b = events.AppendJSONString(b, p.CM)
	}
	if p.Stable != 0 {
		b = append(comma(b), `"stable":`...)
		b = strconv.AppendInt(b, int64(p.Stable), 10)
	}
	if p.Loss != "" {
		b = append(comma(b), `"loss":`...)
		b = events.AppendJSONString(b, p.Loss)
	}
	if p.LossP != 0 {
		b = append(comma(b), `"lossp":`...)
		b = strconv.AppendFloat(b, p.LossP, 'g', -1, 64)
	}
	if p.ECFRound != 0 {
		b = append(comma(b), `"ecf":`...)
		b = strconv.AppendInt(b, int64(p.ECFRound), 10)
	}
	if p.MaxRounds != 0 {
		b = append(comma(b), `"maxrounds":`...)
		b = strconv.AppendInt(b, int64(p.MaxRounds), 10)
	}
	if p.Trace != "" {
		b = append(comma(b), `"trace":`...)
		b = events.AppendJSONString(b, p.Trace)
	}
	if p.Gor {
		b = append(comma(b), `"goroutines":true`...)
	}
	if p.Crashes != "" {
		b = append(comma(b), `"crashes":`...)
		b = events.AppendJSONString(b, p.Crashes)
	}
	if p.SweepSeed != 0 {
		b = append(comma(b), `"sweepseed":`...)
		b = strconv.AppendInt(b, p.SweepSeed, 10)
	}
	if p.Bespoke != "" {
		b = append(comma(b), `"bespoke":`...)
		b = events.AppendJSONString(b, p.Bespoke)
	}
	if p.SeedSchedule != 0 {
		b = append(comma(b), `"sched":`...)
		b = strconv.AppendInt(b, int64(p.SeedSchedule), 10)
	}
	return append(b, '}')
}
