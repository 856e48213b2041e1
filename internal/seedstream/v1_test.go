package seedstream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkV1 drives NewV1(seed) and math/rand's generator for the same seed
// through one sequence of calls and fails on the first differing result.
// The sequence is draws raw source draws (alternating Int63 and Uint64, so
// draw counts land exactly on the lazy-fill and wrap boundaries), then a
// mid-stream Seed, then ops rand.Rand calls chosen by the script stream.
func checkV1(tb testing.TB, seed int64, draws int, script uint64, ops int) {
	tb.Helper()
	got, want := NewV1(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if i%2 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				tb.Fatalf("seed %d: draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			tb.Fatalf("seed %d: draw %d: Uint64 = %d, math/rand %d", seed, i, g, w)
		}
	}
	reseed := int64(Mix64(script))
	got.Seed(reseed)
	want.Seed(reseed)
	for i := 0; i < ops; i++ {
		v := At(script, i)
		arg := v >> 3
		var g, w any
		switch v % 8 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			n := 1 + int(arg%1000)
			g, w = got.Intn(n), want.Intn(n)
		case 2:
			n := 1 + int32(arg%(1<<30))
			g, w = got.Int31n(n), want.Int31n(n)
		case 3:
			n := 1 + int64(arg>>2)
			g, w = got.Int63n(n), want.Int63n(n)
		case 4:
			g, w = got.Uint64(), want.Uint64()
		case 5:
			n := int(arg % 40)
			gp, wp := got.Perm(n), want.Perm(n)
			if !slices.Equal(gp, wp) {
				tb.Fatalf("seed %d, reseed %d: op %d: Perm(%d) = %v, math/rand %v", seed, reseed, i, n, gp, wp)
			}
			continue
		case 6:
			g, w = got.Int63(), want.Int63()
		case 7:
			if arg%64 == 0 {
				reseed = int64(arg)
				got.Seed(reseed)
				want.Seed(reseed)
				continue
			}
			g, w = got.Int31(), want.Int31()
		}
		if g != w {
			tb.Fatalf("seed %d, reseed %d: op %d (kind %d): %v, math/rand %v", seed, reseed, i, v%8, g, w)
		}
	}
}

// FuzzV1MatchesMathRand requires NewV1 to reproduce math/rand's stream
// for any seed, draw count and call sequence. The seed corpus pairs the
// seeds math/rand's seeding treats specially (zero after reduction mod
// 2³¹−1, the extremes of int64) with draw counts around the last lazily
// filled word (334) and the 607-word wrap.
func FuzzV1MatchesMathRand(f *testing.F) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 1 << 31,
		math.MaxInt64, math.MinInt64, 89482311}
	for _, seed := range seeds {
		for _, draws := range []uint16{0, 1, 333, 334, 335, 606, 607, 608, 1300} {
			f.Add(seed, draws, Mix64(uint64(seed)+uint64(draws)))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, script uint64) {
		checkV1(t, seed, int(draws), script, 64)
	})
}

// TestV1MatchesMathRandSeeds is the deterministic sweep behind the fuzz
// target: 200 pseudo-random seeds, each through 2,500 raw draws, a
// reseed, and 2,500 mixed calls.
func TestV1MatchesMathRandSeeds(t *testing.T) {
	for i := uint64(0); i < 200; i++ {
		checkV1(t, int64(Mix64(i)), 2500, Mix64(^i), 2500)
	}
}

var benchSink float64

// BenchmarkV1Source measures seeding plus draws of Float64 for a short
// stream (a small trial's draws) and a long one, against math/rand.
func BenchmarkV1Source(b *testing.B) {
	for _, draws := range []int{58, 20000} {
		for _, src := range []struct {
			name string
			make func(seed int64) *rand.Rand
		}{
			{"seedstream", NewV1},
			{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
		} {
			b.Run(fmt.Sprintf("draws=%d/%s", draws, src.name), func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					r := src.make(int64(i))
					for j := 0; j < draws; j++ {
						sum += r.Float64()
					}
				}
				benchSink = sum
			})
		}
	}
}
