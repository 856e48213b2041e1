package seedstream

import "math/rand"

// The v1 generator is math/rand's additive lagged Fibonacci source
// (Mitchell & Reeds): 607 words of state read at lags 607 and 273. Seeding
// fills word i from three consecutive outputs of the Park–Miller LCG
// x_{k+1} = 48271·x_k mod (2³¹−1), after discarding its first 20 outputs.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 20 // LCG outputs math/rand discards before word 0
)

// lcgPow[k] is 48271^k mod (2³¹−1). Since x_k = x_0·48271^k mod (2³¹−1),
// any state word can be computed directly from the seed x_0, without
// stepping through the LCG outputs of the words before it.
var lcgPow = func() (p [lcgSkip + 3*rngLen + 1]uint32) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = uint32(uint64(p[k-1]) * lcgMul % int32max)
	}
	return p
}()

// NewV1 returns the v1 generator for seed: every draw equals that of
// rand.New(rand.NewSource(seed)), for every seed. Only the cost differs.
// rand.NewSource computes all 607 state words up front (1,841 LCG steps),
// while NewV1 computes each word when a draw first reads it, so a trial
// that draws a few dozen numbers pays for a few dozen words.
func NewV1(seed int64) *rand.Rand {
	s := new(v1Source)
	s.Seed(seed)
	return rand.New(s)
}

// v1Source is math/rand's rngSource with deferred seeding: word i of vec
// holds its seeded value only once bit i of have is set, and filled counts
// the set bits. Once filled reaches rngLen, every draw is math/rand's.
type v1Source struct {
	tap, feed int
	filled    int
	x0        uint64 // the reduced seed, in [1, 2³¹−1)
	have      [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// Seed implements rand.Source. It resets the generator to the state
// math/rand's Seed produces, but leaves every state word to be computed
// on first read.
func (s *v1Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.filled = 0
	s.have = [len(s.have)]uint64{}
}

// Int63 implements rand.Source. It repeats Uint64's body instead of
// calling it: rand.Rand draws through Int63, and a call into the
// non-inlinable Uint64 would slow every draw of a long stream. The indices
// live in locals so that the fast path never reloads them after the fill
// call it skips.
func (s *v1Source) Int63() int64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.filled < rngLen {
		s.fill(tap, feed)
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64.
func (s *v1Source) Uint64() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.filled < rngLen {
		s.fill(tap, feed)
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// fill computes the two words the current draw reads, if no draw since
// Seed has read them. The first rngLen−rngTap (334) draws reach every
// word, so this path is short-lived and kept out of the draw functions.
//
//go:noinline
func (s *v1Source) fill(tap, feed int) {
	s.word(feed)
	s.word(tap)
}

// word computes state word i, unless it is already filled, exactly as
// math/rand's Seed does: from the LCG outputs x_{21+3i}, x_{22+3i} and
// x_{23+3i}, XORed with rngCooked[i].
func (s *v1Source) word(i int) {
	bit := uint64(1) << (i % 64)
	if s.have[i/64]&bit != 0 {
		return
	}
	s.have[i/64] |= bit
	s.filled++
	p := lcgPow[lcgSkip+1+3*i:]
	x := func(j int) int64 { return int64(s.x0 * uint64(p[j]) % int32max) }
	s.vec[i] = x(0)<<40 ^ x(1)<<20 ^ x(2) ^ rngCooked[i]
}
