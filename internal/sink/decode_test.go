package sink

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// writtenRecords are records of every kind the JSONL sink writes: a
// configuration-sweep trial, a grid trial with every params field set, a
// work item, and a quarantine record.
func writtenRecords() []Record {
	return []Record{
		{Schema: Schema, Exp: "trials", Fingerprint: "41ac7dbf598b96c9", Index: 7, Seed: -5653703133376969021,
			Rounds: 15, AllDecided: true, Decisions: 4, DecidedValues: []uint64{3}, LastDecisionRound: 15,
			AgreementOK: true, ValidityOK: true, TerminationOK: true,
			Params: Params{Algorithm: "bitbybit", N: 4, Race: 8, CM: "auto", Stable: 8, Loss: "prob", LossP: 0.3,
				ECFRound: 8, MaxRounds: 100000, Trace: "decisions", SweepSeed: 1}},
		{Schema: Schema, Exp: "T3", Fingerprint: "1d0910e76a23f20a", Index: 0, Name: "T3/V=2/cst=1", Seed: 9,
			Rounds: 3, AllDecided: true, Decisions: 5, DecidedValues: []uint64{0, 18446744073709551615}, LastDecisionRound: 3,
			AgreementOK: true, TerminationOK: true,
			Params: Params{Algorithm: "leaderrelay", N: 5, Domain: 1 << 63, IDSpace: 16, Detector: "0-◇AC", Race: 1,
				FPRate: 1e-05, CM: "wakeup", Stable: 1, Loss: "capture", LossP: 0.35, ECFRound: -1, MaxRounds: 20000,
				Trace: "full", Gor: true, Crashes: "p2@3a,p4@1b", SweepSeed: -1 << 63, Bespoke: "proc,loss", SeedSchedule: 2}},
		RecordOfItem("T9", WorkItem{Kind: "theorem9", Index: 4, Seed: 7, Params: "case=b n=3"}, "term=true detail=x%3Ay"),
		{Schema: Schema, Exp: "trials", Fingerprint: "41ac7dbf598b96c9", Index: 2, Seed: 1,
			Err: "sim: trial 2 panicked: boom\x7f", Params: Params{Algorithm: "propose", N: 4}},
	}
}

// TestCanonicalDecodesWrittenLines: every kind of line the sink writes takes
// the fast path and decodes to the record written, as encoding/json does.
func TestCanonicalDecodesWrittenLines(t *testing.T) {
	for i, want := range writtenRecords() {
		line := trimLine(appendRecord(nil, want))
		var got, ref Record
		d := recordDecoder{strs: map[string]string{}}
		if !d.canonical(line, &got) {
			t.Fatalf("record %d: the sink's own line left the fast path: %s", i, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d decoded differently:\n got %+v\nwant %+v", i, got, want)
		}
		if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("record %d: encoding/json reads %+v (%v), the fast path %+v", i, ref, err, got)
		}
	}
}

// TestNonCanonicalLinesDecodeAsEncodingJSON: valid lines the sink does not
// write leave the fast path and decode to json.Unmarshal's record.
func TestNonCanonicalLinesDecodeAsEncodingJSON(t *testing.T) {
	for _, line := range []string{
		`{"i":3,"schema":2,"seed":5,"params":{"n":4,"alg":"propose"}}`,
		`{"schema":2, "i":3, "seed":5, "params":{"alg":"propose"}}`,
		`{"schema":2,"exp":"T\u0041","i":3,"params":{}}`,
		`{"schema":2,"i":3,"values":[],"params":{}}`,
		`{"schema":2,"i":3,"name":null,"params":{}}`,
		`{"schema":2,"i":3,"zzz":[1,{"a":null}],"params":{}}`,
	} {
		var probe Record
		if (&recordDecoder{strs: map[string]string{}}).canonical([]byte(line), &probe) {
			t.Errorf("%s took the fast path", line)
		}
		var want Record
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got, err := ReadRecords(strings.NewReader(line + "\n"))
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s read as %+v (%v), encoding/json reads %+v", line, got, err, want)
		}
	}
}

// shardStream writes n sweep-shaped records, as a sweep-small shard holds.
func shardStream(n int) []byte {
	rec := writtenRecords()[0]
	var b []byte
	for i := 0; i < n; i++ {
		rec.Index, rec.Seed, rec.DecidedValues = i, int64(i)*7919, []uint64{uint64(i % 16)}
		b = appendRecord(b, rec)
	}
	return b
}

// TestReadRecordsPartialAllocations pins the reader's cost: a shard of
// canonical records reads at no more than one allocation per record
// (encoding/json paid 15).
func TestReadRecordsPartialAllocations(t *testing.T) {
	const n = 2000
	stream := shardStream(n)
	allocs := testing.AllocsPerRun(5, func() {
		if recs, _, torn := ReadRecordsPartial(bytes.NewReader(stream)); torn != nil || len(recs) != n {
			t.Fatalf("read %d records, torn %v", len(recs), torn)
		}
	})
	if allocs > n {
		t.Fatalf("reading %d canonical records allocates %.0f objects (%.2f per record), want at most 1 per record",
			n, allocs, allocs/n)
	}
}

// TestDecodedValuesAreIndependent: an append to one record's values, which
// share a block with the next record's, does not write into the next.
func TestDecodedValuesAreIndependent(t *testing.T) {
	recs, err := ReadRecords(bytes.NewReader(shardStream(3)))
	if err != nil {
		t.Fatal(err)
	}
	recs[0].DecidedValues = append(recs[0].DecidedValues, 99)
	if recs[1].DecidedValues[0] != 1 || len(recs[1].DecidedValues) != 1 {
		t.Fatalf("record 1's values changed with record 0's: %v", recs[1].DecidedValues)
	}
}

// FuzzDecodeRecord checks the record decoder against encoding/json: one
// decoder reads a sweep line and then each line of the input, as it would
// within a read, so its string table and last params object carry over;
// on every line both accept alike, decode to equal records, and reject
// with the same error text. The seed corpus is a line of every kind the
// sink writes, all of them in one stream, each golden torn tail, and lines
// in other forms; tier-1 runs only the corpus.
func FuzzDecodeRecord(f *testing.F) {
	var stream []byte
	for _, rec := range writtenRecords() {
		line := appendRecord(nil, rec)
		f.Add(trimLine(line))
		stream = append(stream, line...)
	}
	f.Add(stream)
	_, lines := salvageFile()
	for _, tc := range goldenTails(lines) {
		f.Add(tc.tail)
	}
	for _, line := range []string{
		`{"schema":2,"i":01}`, `{"schema":2,"i":-0,"seed":-9223372036854775808}`,
		`{"schema":2,"seed":-9223372036854775809}`, `{"schema":2,"values":[18446744073709551616]}`,
		`{"schema":2,"i":9223372036854775808}`, `{"schema":2,"i":1.5}`, `{"schema":2}x`, `{}`, `null`,
		`{"schema":2,"params":{"lossp":1e400,"ecf":3E+0}}`, `{"schema":2,"params":{"domain":-1}}`,
		"{\"schema\":2,\"exp\":\"\xff\"}", "{\"params\":{\"n\":01}}\n{\"params\":{\"n\":01}",
	} {
		f.Add([]byte(line))
	}
	sweep := trimLine(appendRecord(nil, writtenRecords()[0]))
	f.Fuzz(func(t *testing.T, b []byte) {
		d := recordDecoder{strs: map[string]string{}}
		for _, line := range append([][]byte{sweep}, bytes.Split(b, []byte{'\n'})...) {
			var want, got Record
			wantErr := json.Unmarshal(line, &want)
			err := d.decode(line, &got)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%q: decoder error %v, encoding/json %v", line, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%q decoded differently:\n got %+v\nwant %+v", line, got, want)
			}
		}
	})
}

// BenchmarkReadRecordsPartial reads a 4,000-record sweep shard.
func BenchmarkReadRecordsPartial(b *testing.B) {
	const n = 4000
	stream := shardStream(n)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	for b.Loop() {
		if recs, _, torn := ReadRecordsPartial(bytes.NewReader(stream)); torn != nil || len(recs) != n {
			b.Fatalf("read %d records, torn %v", len(recs), torn)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
