//go:build race

package engine

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool intentionally drops puts and allocation counts are noise.
const raceEnabled = true
