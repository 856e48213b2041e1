// Package seedstream defines the versioned seed schedules that map a
// trial seed onto the pseudo-random draws a simulation consumes.
//
// A seed schedule is the contract between a recorded trial and its
// replay: two builds agree on a trial's outcome exactly when they agree
// on the schedule version and the seed. The package provides
//
//   - V1: the historical sequential schedule. Every component owns a
//     *rand.Rand seeded once; draws are consumed in iteration order, so
//     the stream is inherently order-dependent and serial. V1 generators
//     come from NewV1, whose stream is bit-identical to math/rand's for
//     the same seed and whose seeding is deferred to first use: each of
//     the 607 state words is computed when a draw first reads it.
//   - V2: a counter-based schedule. Each (seed, round, stream) triple
//     keys an independent splitmix64 sequence addressed by index, so any
//     shard can fill its slice of a loss row without observing — or
//     racing with — any other shard's draws.
//
// Both schedules derive from the same splitmix64 finalizer (Mix64),
// which is also the basis of the per-trial seed derivation in
// internal/sim. The constants here are the reference splitmix64
// constants (Steele, Lea & Flood, OOPSLA 2014).
package seedstream

// Schedule versions. Zero is treated as V1 everywhere (Normalize) so
// that recordings and configurations from before schedules existed keep
// their meaning.
const (
	// V1 is the sequential schedule: one rand.Rand per component,
	// draws consumed in iteration order.
	V1 = 1
	// V2 is the counter-based schedule: per-(round,receiver) keyed
	// streams addressable by index, safe to fill shard-parallel.
	V2 = 2
)

// Normalize maps the zero value (schedule unset) to V1 and returns any
// other version unchanged.
func Normalize(v int) int {
	if v == 0 {
		return V1
	}
	return v
}

// Valid reports whether v names a known seed schedule (0 counts as V1).
func Valid(v int) bool {
	switch Normalize(v) {
	case V1, V2:
		return true
	}
	return false
}

// gamma is the splitmix64 sequence increment.
const gamma = 0x9E3779B97F4A7C15

// Mix64 is the splitmix64 output finalizer: a bijective avalanche on 64
// bits. It is the single mixing primitive behind both the per-trial
// seed derivation (sim.TrialSeed) and the v2 counter streams.
func Mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Key derives the stream key for (seed, round, stream). Each argument
// is folded through Mix64 in turn — the same add-then-mix chaining as
// sim.TrialSeed — so keys for adjacent rounds or streams share no
// structure.
func Key(seed int64, round int, stream uint64) uint64 {
	h := Mix64(uint64(seed))
	h = Mix64(h + uint64(round))
	return Mix64(h + stream)
}

// At returns the i-th draw of the stream identified by key: the value a
// splitmix64 generator seeded with key would produce as its (i+1)-th
// output, computed directly without stepping through draws 0..i-1.
func At(key uint64, i int) uint64 {
	return Mix64(key + uint64(i)*gamma)
}

// Float64At returns the i-th draw of the stream as a float64 in [0, 1),
// using the same 53-bit construction as math/rand's Float64 fast path.
func Float64At(key uint64, i int) float64 {
	return float64(At(key, i)>>11) / (1 << 53)
}
