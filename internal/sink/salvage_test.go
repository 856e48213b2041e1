package sink

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// salvageFile builds a well-formed three-record shard stream and returns it
// with the individual lines, so tests can tear its tail byte-precisely.
func salvageFile() (stream []byte, lines [][]byte) {
	for i := 0; i < 3; i++ {
		line := appendRecord(nil, Record{Schema: Schema, Index: i, Rounds: i + 1, Name: "salvage/t"})
		lines = append(lines, line)
		stream = append(stream, line...)
	}
	return stream, lines
}

// TestReadRecordsPartialClean: a well-formed stream salvages completely — all
// records, offset at EOF, no torn tail.
func TestReadRecordsPartialClean(t *testing.T) {
	stream, _ := salvageFile()
	recs, off, tail := ReadRecordsPartial(bytes.NewReader(stream))
	if tail != nil {
		t.Fatalf("clean stream reported torn: %v", tail)
	}
	if len(recs) != 3 || off != int64(len(stream)) {
		t.Fatalf("clean stream: %d records, offset %d (want 3, %d)", len(recs), off, len(stream))
	}
	if recs, off, tail := ReadRecordsPartial(strings.NewReader("")); tail != nil || len(recs) != 0 || off != 0 {
		t.Fatalf("empty stream: %d records, offset %d, tail %v", len(recs), off, tail)
	}
}

// goldenTail is a torn-tail byte pattern a killed writer leaves behind,
// appended to the two-record prefix of salvageFile.
type goldenTail struct {
	name string
	tail []byte
}

// goldenTails returns the torn tails the salvage reader must cut off, built
// from salvageFile's lines.
func goldenTails(lines [][]byte) []goldenTail {
	return []goldenTail{
		{"mid-record cut", lines[2][:len(lines[2])/2]},
		{"half-written final line, cut before terminator", lines[2][:len(lines[2])-1]},
		{"complete JSON but no newline terminator", trimLine(append([]byte(nil), lines[2]...))},
		{"trailing NULs from a preallocated block", []byte("\x00\x00\x00\x00\x00\x00")},
		{"NUL-padded line with terminator", []byte("\x00\x00\x00\n")},
		{"garbage line", []byte("{not json}\n")},
		{"foreign schema line", appendRecord(nil, Record{Schema: Schema + 1, Index: 2})},
	}
}

// TestReadRecordsPartialGoldenTails walks the torn-tail byte patterns a
// killed writer leaves behind. For each, the salvage read must return the
// intact record prefix with Offset at the exact truncation point — and
// truncating there must yield a stream the strict reader accepts.
func TestReadRecordsPartialGoldenTails(t *testing.T) {
	stream, lines := salvageFile()
	prefix := stream[:len(lines[0])+len(lines[1])] // records 0 and 1 intact

	for _, tc := range goldenTails(lines) {
		t.Run(tc.name, func(t *testing.T) {
			torn := append(append([]byte(nil), prefix...), tc.tail...)
			recs, off, tail := ReadRecordsPartial(bytes.NewReader(torn))
			if tail == nil {
				t.Fatalf("torn stream salvaged as clean (%d records)", len(recs))
			}
			if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 1 {
				t.Fatalf("salvaged %d records, want the 2-record prefix", len(recs))
			}
			if off != int64(len(prefix)) {
				t.Fatalf("offset %d, want %d (the valid prefix length)", off, len(prefix))
			}
			if tail.Offset != off || tail.Line != 3 {
				t.Fatalf("torn tail positioned at byte %d line %d, want byte %d line 3", tail.Offset, tail.Line, off)
			}
			// The whole point of Offset: truncating there satisfies the
			// strict reader.
			if _, err := ReadRecords(bytes.NewReader(torn[:tail.Offset])); err != nil {
				t.Fatalf("truncated-at-offset stream still rejected: %v", err)
			}
		})
	}
}

// TestReadRecordsPartialStopsAtFirstDefect: bytes after the defect are never
// trusted, even if they happen to look like records again.
func TestReadRecordsPartialStopsAtFirstDefect(t *testing.T) {
	_, lines := salvageFile()
	torn := append(append([]byte(nil), lines[0]...), []byte("{broken\n")...)
	torn = append(torn, lines[1]...) // a valid record stranded past the tear
	recs, off, tail := ReadRecordsPartial(bytes.NewReader(torn))
	if tail == nil || len(recs) != 1 || off != int64(len(lines[0])) {
		t.Fatalf("read past the tear: %d records, offset %d, tail %v", len(recs), off, tail)
	}
}

// readersAgree checks the strict and the salvage reader against each other
// on b: the valid prefix is empty or ends on a record terminator, there is
// a torn tail exactly when the prefix stops short of b, the strict reader
// returns exactly the salvaged records from the prefix, and it accepts b
// exactly when the salvage read finds no torn tail.
func readersAgree(b []byte) error {
	recs, valid, tail := ReadRecordsPartial(bytes.NewReader(b))
	if valid < 0 || valid > int64(len(b)) || (valid > 0 && b[valid-1] != '\n') {
		return fmt.Errorf("valid prefix %d of %d bytes does not end on a terminator", valid, len(b))
	}
	if (tail == nil) != (valid == int64(len(b))) {
		return fmt.Errorf("torn tail %v with a %d-byte valid prefix of %d bytes", tail, valid, len(b))
	}
	prefix, err := ReadRecords(bytes.NewReader(b[:valid]))
	if err != nil {
		return fmt.Errorf("strict reader rejects the valid prefix: %v", err)
	}
	if !reflect.DeepEqual(prefix, recs) {
		return fmt.Errorf("strict reader read %d records from the valid prefix, salvage %d", len(prefix), len(recs))
	}
	if _, err := ReadRecords(bytes.NewReader(b)); (err == nil) != (tail == nil) {
		return fmt.Errorf("strict reader error %v, salvage torn tail %v", err, tail)
	}
	return nil
}

// TestReadersAgree: whatever a three-record stream ends in, the strict
// reader succeeds exactly when the salvage reader reports no torn tail, and
// both return the same records.
func TestReadersAgree(t *testing.T) {
	stream, lines := salvageFile()
	foreign := appendRecord(nil, Record{Schema: Schema + 1, Index: 3})
	for _, tail := range [][]byte{
		nil, []byte("\n"), []byte("\r\n"), []byte("\r"), []byte(" "),
		lines[2][:len(lines[2])/2], []byte("{not json}\n"), foreign,
	} {
		b := append(append([]byte(nil), stream...), tail...)
		if err := readersAgree(b); err != nil {
			t.Errorf("stream ending in %q: %v", tail, err)
		}
	}
}

// FuzzReadRecordsPartial checks readersAgree on arbitrary bytes. The seed
// corpus is the golden torn tails, a work-item record, and a lone carriage
// return; tier-1 runs only the corpus.
func FuzzReadRecordsPartial(f *testing.F) {
	stream, lines := salvageFile()
	prefix := stream[:len(lines[0])+len(lines[1])]
	for _, tc := range goldenTails(lines) {
		f.Add(append(append([]byte(nil), prefix...), tc.tail...))
	}
	f.Add(appendRecord(nil, RecordOfItem("T9", WorkItem{Kind: "theorem9", Index: 4, Seed: 7, Params: "case=b n=3"}, "ok=true")))
	f.Add(append(append([]byte(nil), stream...), '\r'))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := readersAgree(b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadersAgreeOnLongLines: a record longer than the reader's 64 KiB
// buffer reads whole, and the torn tail after it is still cut off.
func TestReadersAgreeOnLongLines(t *testing.T) {
	stream, lines := salvageFile()
	long := Record{Schema: Schema, Index: 3, Err: strings.Repeat("x", 1<<16+100)}
	b := append(append([]byte(nil), stream...), appendRecord(nil, long)...)
	for _, end := range [][]byte{nil, lines[2][:len(lines[2])/2], []byte("{not json}\n")} {
		torn := append(append([]byte(nil), b...), end...)
		if err := readersAgree(torn); err != nil {
			t.Errorf("long record then %q: %v", end, err)
		}
		recs, valid, tail := ReadRecordsPartial(bytes.NewReader(torn))
		if len(recs) != 4 || !reflect.DeepEqual(recs[3], long) || valid != int64(len(b)) {
			t.Fatalf("long record then %q: read %d records, %d valid bytes of %d, tail %v", end, len(recs), valid, len(b), tail)
		}
	}
}
