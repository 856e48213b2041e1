package sink

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// TornTail positions the defect that ended a salvage read: everything before
// Offset is a well-formed record stream, everything from Offset on is the
// torn tail a crashed or killed writer left behind. It is an error value so
// callers that cannot resume can still surface it, but its real payload is
// Offset — truncate the file there and the survivor is a valid shard file
// whose records are a contiguous prefix of the shard's delivery order
// (SweepTo delivers strictly in ascending index order, so a prefix of bytes
// is a prefix of trials).
type TornTail struct {
	// Offset is the length in bytes of the valid prefix — equivalently, the
	// offset of the first defective line.
	Offset int64
	// Line is the 1-based line number of the defective line.
	Line int
	// Err describes the defect: a parse failure, a schema mismatch, a
	// missing newline terminator, or the underlying read error.
	Err error
}

func (t *TornTail) Error() string {
	return fmt.Sprintf("sink: torn tail at byte %d (line %d): %v", t.Offset, t.Line, t.Err)
}

func (t *TornTail) Unwrap() error { return t.Err }

// ReadRecordsPartial is the salvage-mode counterpart of ReadRecords: instead
// of failing on the first defective line it returns the valid record prefix,
// the prefix's byte length, and a *TornTail positioning the defect (nil when
// the whole stream is well-formed, in which case the length equals the bytes
// read). Nothing past the first defect is examined — once one line is torn,
// later bytes have no trustworthy framing. The records are nil when there
// are none.
//
// A line is defective if it lacks a newline terminator (half-written final
// line), fails to parse as JSON (mid-record cut, NUL padding from a
// preallocated filesystem block), or carries a schema version this build
// does not read. Blank lines are skipped, as in ReadRecords.
//
// A line in the form the JSONL sink writes is decoded in one pass by hand;
// any other line (another key order, whitespace, escapes, null, unknown
// keys) goes to encoding/json. Either way a line is accepted, decoded and
// rejected exactly as json.Unmarshal would, error text included.
func ReadRecordsPartial(r io.Reader) ([]Record, int64, *TornTail) {
	br := bufio.NewReaderSize(r, 1<<16)
	d := recordDecoder{strs: make(map[string]string)}
	var out []Record
	var valid int64 // bytes validated so far: the safe truncation point
	var long []byte // a line longer than br's buffer, assembled
	line := 0
	for {
		// raw aliases br's buffer (or long) until the next read.
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if err != nil && err != io.EOF {
			return out, valid, &TornTail{Offset: valid, Line: line + 1, Err: err}
		}
		if len(raw) == 0 {
			return out, valid, nil
		}
		line++
		if err == io.EOF {
			return out, valid, &TornTail{
				Offset: valid, Line: line,
				Err: fmt.Errorf("truncated final record (%d bytes, no newline terminator)", len(raw)),
			}
		}
		if trimmed := trimLine(raw); len(trimmed) > 0 {
			// Decode straight into the record's slot. The slice doubles
			// when full: append's 1.25x steps for a large slice would copy
			// each 408-byte record about four times.
			if len(out) == cap(out) {
				out = slices.Grow(out, max(len(out), 64))
			}
			out = append(out, Record{})
			rec := &out[len(out)-1]
			derr := d.decode(trimmed, rec)
			if derr == nil && rec.Schema != Schema {
				derr = fmt.Errorf("schema %d, this build reads schema %d", rec.Schema, Schema)
			}
			if derr != nil {
				// Give the slot back; a read without records returns nil.
				if out = out[:len(out)-1]; len(out) == 0 {
					out = nil
				}
				return out, valid, &TornTail{Offset: valid, Line: line, Err: derr}
			}
		}
		valid += int64(len(raw))
	}
}

// trimLine strips the newline terminator (and a carriage return, for files
// that crossed a Windows filesystem) from one raw line.
func trimLine(raw []byte) []byte {
	for len(raw) > 0 && (raw[len(raw)-1] == '\n' || raw[len(raw)-1] == '\r') {
		raw = raw[:len(raw)-1]
	}
	return raw
}
