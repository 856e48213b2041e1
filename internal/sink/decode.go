package sink

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxInterned bounds one read's string table. A shard repeats a handful of
// experiment labels, fingerprints, scenario names and parameter strings;
// past the bound, new strings are simply not shared.
const maxInterned = 1024

// valuesBlock is how many decided values one shared block holds.
const valuesBlock = 256

// recordDecoder decodes the lines of one read. A line in the form
// appendRecord writes takes a one-pass fast path (canonical); every other
// line goes to encoding/json. The fast path accepts only lines whose
// json.Unmarshal result it reproduces exactly, so the two together accept,
// reject and decode what json.Unmarshal alone does, error text included.
type recordDecoder struct {
	strs  map[string]string // interned exp, fp, name, item and params strings
	vals  []uint64          // scratch: the values array being scanned
	block []uint64          // the shared block records' values are cut from

	// The last params object decoded, as text and value: a shard repeats
	// one configuration's params line after line.
	lastRaw    []byte
	lastParams Params
}

// decode decodes one trimmed line into *rec, which must be the zero Record.
func (d *recordDecoder) decode(line []byte, rec *Record) error {
	if d.canonical(line, rec) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(line, rec)
}

// canonical decodes line into *rec if the line is a JSON object with no
// whitespace whose keys are a subsequence of appendRecord's key order, each
// value in a form the writer uses: an integer without sign (uint64 fields)
// or with an optional minus sign, in JSON's grammar and in the field's range;
// a JSON number for a float field; true or false; a non-empty array of
// unsigned integers; and a string that decodes to its own bytes (no escape,
// no control byte, valid UTF-8). It reports false for anything else, having
// written part of *rec.
func (d *recordDecoder) canonical(line []byte, rec *Record) bool {
	s := lineScanner{b: line}
	s.open()
	if s.key("schema") {
		rec.Schema = s.int()
	}
	if s.key("exp") {
		rec.Exp = d.intern(s.str())
	}
	if s.key("fp") {
		rec.Fingerprint = d.intern(s.str())
	}
	if s.key("i") {
		rec.Index = s.int()
	}
	if s.key("name") {
		rec.Name = d.intern(s.str())
	}
	if s.key("seed") {
		rec.Seed = s.int64()
	}
	if s.key("rounds") {
		rec.Rounds = s.int()
	}
	if s.key("decided") {
		rec.AllDecided = s.bool()
	}
	if s.key("decisions") {
		rec.Decisions = s.int()
	}
	if s.key("values") {
		rec.DecidedValues = d.values(&s)
	}
	if s.key("lastround") {
		rec.LastDecisionRound = s.int()
	}
	if s.key("agreement") {
		rec.AgreementOK = s.bool()
	}
	if s.key("validity") {
		rec.ValidityOK = s.bool()
	}
	if s.key("termination") {
		rec.TerminationOK = s.bool()
	}
	if s.key("err") {
		rec.Err = string(s.str())
	}
	if s.key("item") {
		rec.Item = d.intern(s.str())
	}
	if s.key("itemparams") {
		rec.ItemParams = string(s.str())
	}
	if s.key("out") {
		rec.Out = string(s.str())
	}
	if s.key("params") {
		rec.Params = d.params(&s)
	}
	s.close()
	return !s.bad && s.i == len(s.b)
}

// params is canonical's mirror of appendParams. An object whose text
// equals the last one decoded is that one's value: what the scan of an
// object finds depends on no byte past its closing brace.
func (d *recordDecoder) params(s *lineScanner) Params {
	start := s.i
	if len(d.lastRaw) > 0 && bytes.HasPrefix(s.b[start:], d.lastRaw) {
		s.i += len(d.lastRaw)
		return d.lastParams
	}
	var p Params
	s.open()
	if s.key("alg") {
		p.Algorithm = d.intern(s.str())
	}
	if s.key("n") {
		p.N = s.int()
	}
	if s.key("domain") {
		p.Domain = s.uint()
	}
	if s.key("idspace") {
		p.IDSpace = s.uint()
	}
	if s.key("detector") {
		p.Detector = d.intern(s.str())
	}
	if s.key("race") {
		p.Race = s.int()
	}
	if s.key("fprate") {
		p.FPRate = s.float()
	}
	if s.key("cm") {
		p.CM = d.intern(s.str())
	}
	if s.key("stable") {
		p.Stable = s.int()
	}
	if s.key("loss") {
		p.Loss = d.intern(s.str())
	}
	if s.key("lossp") {
		p.LossP = s.float()
	}
	if s.key("ecf") {
		p.ECFRound = s.int()
	}
	if s.key("maxrounds") {
		p.MaxRounds = s.int()
	}
	if s.key("trace") {
		p.Trace = d.intern(s.str())
	}
	if s.key("goroutines") {
		p.Gor = s.bool()
	}
	if s.key("crashes") {
		p.Crashes = d.intern(s.str())
	}
	if s.key("sweepseed") {
		p.SweepSeed = s.int64()
	}
	if s.key("bespoke") {
		p.Bespoke = d.intern(s.str())
	}
	if s.key("sched") {
		p.SeedSchedule = s.int()
	}
	s.close()
	if !s.bad {
		d.lastRaw = append(d.lastRaw[:0], s.b[start:s.i]...)
		d.lastParams = p
	}
	return p
}

// values scans a non-empty array of unsigned integers. The slice it returns
// is cut from a block shared with the read's other records, its capacity
// capped at its length so an append by the caller copies it out.
func (d *recordDecoder) values(s *lineScanner) []uint64 {
	s.expect('[')
	d.vals = d.vals[:0]
	for !s.bad {
		d.vals = append(d.vals, s.uint())
		if !s.lit(",") {
			break
		}
	}
	s.expect(']')
	if s.bad {
		return nil
	}
	if cap(d.block)-len(d.block) < len(d.vals) {
		d.block = make([]uint64, 0, max(valuesBlock, len(d.vals)))
	}
	start := len(d.block)
	d.block = append(d.block, d.vals...)
	return d.block[start:len(d.block):len(d.block)]
}

// intern returns b as a string shared with the read's earlier equal
// strings.
func (d *recordDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.strs) < maxInterned {
		d.strs[s] = s
	}
	return s
}

// lineScanner walks one line for canonical. The first mismatch sets bad,
// after which every method is a no-op returning a zero value.
type lineScanner struct {
	b     []byte
	i     int
	first bool // the open object has no member yet
	bad   bool
}

// lit consumes t if it comes next.
func (s *lineScanner) lit(t string) bool {
	if s.bad || len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// expect consumes the byte c, or marks the line bad.
func (s *lineScanner) expect(c byte) {
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		s.bad = true
		return
	}
	s.i++
}

func (s *lineScanner) open() {
	s.expect('{')
	s.first = true
}

func (s *lineScanner) close() {
	s.expect('}')
	s.first = false
}

// key consumes the member separator and `"name":` if they come next.
func (s *lineScanner) key(name string) bool {
	i := s.i
	if !s.first {
		if i >= len(s.b) || s.b[i] != ',' {
			return false
		}
		i++
	}
	// Check the quotes and colon that bracket a key of name's length
	// before comparing the name itself.
	end := i + len(name) + 3
	if s.bad || end > len(s.b) || s.b[i] != '"' || s.b[end-2] != '"' || s.b[end-1] != ':' ||
		string(s.b[i+1:end-2]) != name {
		return false
	}
	s.i, s.first = end, false
	return true
}

// digits consumes a JSON integer's digits: one or more, with no leading
// zero. It returns the digits consumed.
func (s *lineScanner) digits() []byte {
	if s.bad {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	d := s.b[start:s.i]
	if len(d) == 0 || (d[0] == '0' && len(d) > 1) {
		s.bad = true
		return nil
	}
	return d
}

// uint scans an integer without sign that fits in 64 bits.
func (s *lineScanner) uint() uint64 {
	var u uint64
	for _, c := range s.digits() {
		v := uint64(c - '0')
		if u > (math.MaxUint64-v)/10 {
			s.bad = true
			return 0
		}
		u = u*10 + v
	}
	return u
}

// int64 scans an integer with an optional minus sign that fits in an
// int64.
func (s *lineScanner) int64() int64 {
	neg := s.lit("-")
	u := s.uint()
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.bad = true
	return 0
}

// int scans an integer that fits in an int.
func (s *lineScanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

func (s *lineScanner) bool() bool {
	switch {
	case s.lit("true"):
		return true
	case s.lit("false"):
		return false
	}
	s.bad = true
	return false
}

// float scans a JSON number and parses it with strconv.ParseFloat, as
// encoding/json parses a float64 field.
func (s *lineScanner) float() float64 {
	start := s.i
	s.lit("-")
	s.digits()
	if s.lit(".") {
		s.fraction()
	}
	if s.lit("e") || s.lit("E") {
		if !s.lit("+") {
			s.lit("-")
		}
		s.fraction()
	}
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// fraction consumes one or more digits, leading zeros allowed: a
// fraction's or an exponent's.
func (s *lineScanner) fraction() {
	if s.bad {
		return
	}
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == start {
		s.bad = true
	}
}

// str scans a string whose value is its own bytes: no escape, no control
// byte and valid UTF-8, which are the strings encoding/json returns
// verbatim. The bytes alias the line.
func (s *lineScanner) str() []byte {
	if !s.lit(`"`) {
		s.bad = true
		return nil
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			if !ascii && !utf8.Valid(v) {
				s.bad = true
				return nil
			}
			return v
		case c == '\\' || c < 0x20:
			s.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.bad = true
	return nil
}
