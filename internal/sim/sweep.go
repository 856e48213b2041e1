package sim

import (
	"fmt"

	"adhocconsensus/internal/seedstream"
)

// TrialSeed derives the seed of one trial from the sweep seed, the
// scenario's grid index, and the trial index, by chained splitmix64 mixing
// (seedstream.Mix64). It replaces the shared *rand.Rand of the pre-sim
// experiment loops: no two trials share a generator, so their draw order
// cannot couple and the sweep parallelizes without changing a single
// execution.
func TrialSeed(sweepSeed int64, scenario, trial int) int64 {
	// Sequential add-then-mix chaining: XOR-combining two hashed operands
	// would be commutative in (scenario, trial) and collide across
	// positions.
	h := seedstream.Mix64(uint64(sweepSeed))
	h = seedstream.Mix64(h + uint64(scenario))
	h = seedstream.Mix64(h + uint64(trial))
	return int64(h)
}

// Trial pairs a scenario with its global index in the full sweep. Shards
// are slices of Trials so that a shard worker reports results under the
// indices the unsharded sweep would have used.
type Trial struct {
	Index    int
	Scenario Scenario
}

// ShardScenarios partitions an expanded scenario slice (an experiment grid
// or a -trials sweep, each trial already carrying its seed) into its
// shard-of-shards subset by round-robin on the global index. Partitioning
// after expansion keeps every trial's seed and index what the unsharded
// sweep gives it, so the union of the k shards is the unsharded slice —
// byte-identical executions at any worker or shard count. Round-robin
// balances cost-skewed grids (e.g. one axis varying |V|) better than
// contiguous blocks would.
func ShardScenarios(scenarios []Scenario, shard, shards int) ([]Trial, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: shard count %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("sim: shard %d outside [0,%d)", shard, shards)
	}
	out := make([]Trial, ShardLen(len(scenarios), shard, shards))
	for k := range out {
		i := shard + k*shards
		out[k] = Trial{Index: i, Scenario: scenarios[i]}
	}
	return out, nil
}

// ShardLen is how many of the indices 0..total-1 fall to shard of shards
// (shard ≥ 0, shards ≥ 1): those congruent to shard mod shards. The k-th
// of them is shard + k·shards. It is exact for every total, MaxInt
// included, where the textbook (total-shard+shards-1)/shards overflows.
func ShardLen(total, shard, shards int) int {
	if shard >= total {
		return 0
	}
	return (total-shard-1)/shards + 1
}
