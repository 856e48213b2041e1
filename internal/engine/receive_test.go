package engine

import (
	"slices"
	"testing"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multiset"
)

// Row shapes of FuzzReceiveMatchesAdd.
const (
	rowNil     = iota // nothing lost
	rowRandom         // the fuzzer's bits, the self entry included
	rowAllLost        // Drop's matrix: every entry lost, the self entry too
	numRows
)

// FuzzReceiveMatchesAdd builds one receiver's receive set the way deliver
// does (classify the round's messages, then one counting pass with
// receive) and the way one Add per heard message does, and requires equal
// content and an equal Range sequence: first-heard order, which is the
// compact multiset's insertion order at any size.
//
// msgs gives the k senders' messages (the low bit picks the kind, the rest
// the value, over an alphabet of 3 values, or of 40 when wide is set so
// that a set can hold more than 16 distinct messages), row the loss row's
// bits, shape the row's shape, and self the receiver's sender number
// (silent when it is k or more). Each input runs twice on one reused set:
// for the receiver self, then for a silent receiver.
func FuzzReceiveMatchesAdd(f *testing.F) {
	for _, c := range []struct {
		msgs  string
		row   string
		shape uint8
		wide  bool
		self  uint8
	}{
		{"\x00\x02\x04\x02\x00", "\x0b", rowRandom, false, 1},
		{"\x00\x02\x04\x02\x00", "\x0b", rowNil, false, 0},
		{"\x00\x02\x04\x02\x00", "", rowAllLost, false, 3},
		{"\x06\x02\x06\x00\x04", "\xff\x00", rowRandom, false, 2},
		{"\x00", "\x01", rowRandom, false, 0},
		{"", "", rowNil, false, 0},
		{"\x00\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x18\x1a\x1c\x1e\x20\x22\x24\x26\x28\x2a\x2c\x2e\x01\x03\x05",
			"\x92\x49\x24\x92", rowRandom, true, 20},
		{"\x00\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x18\x1a\x1c\x1e\x20\x22\x24\x26\x28\x2a\x2c\x2e\x01\x03\x05",
			"", rowNil, true, 5},
		{"\x30\x2e\x2c\x2a\x28\x26\x24\x22\x20\x1e\x1c\x1a\x18\x16\x14\x12\x10\x0e\x0c\x0a\x08\x06\x04\x02\x00\x30\x2e\x2c",
			"\x0f\xf0\x33", rowRandom, true, 26},
	} {
		f.Add([]byte(c.msgs), []byte(c.row), c.shape, c.wide, c.self)
	}
	f.Fuzz(func(t *testing.T, raw, bits []byte, shape uint8, wide bool, self uint8) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		k := len(raw)
		alphabet := byte(3)
		if wide {
			alphabet = 40
		}
		msgs := make([]model.Message, k)
		for j, b := range raw {
			msgs[j] = model.Message{Kind: model.MessageKind(1 + b&1), Value: model.Value(b >> 1 % alphabet)}
		}
		var lost []bool
		switch shape % numRows {
		case rowRandom:
			lost = make([]bool, k)
			for j := range lost {
				if len(bits) > 0 {
					lost[j] = bits[j/8%len(bits)]>>(j%8)&1 == 1
				}
			}
		case rowAllLost:
			lost = make([]bool, k)
			for j := range lost {
				lost[j] = true
			}
		}

		var st State
		st.carve(k, 1)
		st.senderMsgs = msgs
		st.classify()
		got := multiset.New[model.Message]()
		for _, own := range []int{int(self), -1} {
			if own >= k {
				own = -1
			}
			got.Reset()
			st.receive(got, lost, own, st.tallies[:k], st.tallies[k:2*k])

			want := multiset.New[model.Message]()
			var order []model.Message
			for j, m := range msgs {
				if lost == nil || !lost[j] || j == own {
					if !want.Contains(m) {
						order = append(order, m)
					}
					want.Add(m)
				}
			}
			if !got.Equal(want) || got.Distinct() != want.Distinct() {
				t.Fatalf("receiver %d of %v, row %v: got %v, one Add per message gives %v", own, msgs, lost, got, want)
			}
			var seq []model.Message
			got.Range(func(m model.Message, n int) bool {
				seq = append(seq, m)
				return true
			})
			if !slices.Equal(seq, order) {
				t.Fatalf("receiver %d of %v, row %v: Range order %v, first-heard order %v", own, msgs, lost, seq, order)
			}
		}
	})
}
