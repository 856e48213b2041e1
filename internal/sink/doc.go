// Package sink is the streaming result pipeline under the sweep engine:
// instead of accumulating per-trial results in memory and discarding them
// once a table or statistic is rendered, a sweep streams each digested
// sim.Result into a Sink as it completes — to memory (Memory), to a JSONL
// file (JSONL), or to several places at once (Fanout). Together with the
// sweep sharding in internal/sim (Sweep.Shard / ShardScenarios) it turns a
// single-machine Monte-Carlo sweep into k independent shard runs whose
// output files merge back — byte-identically — into what the one-machine
// run would have produced. cmd/sweeprun is the command-line face of the
// subsystem.
//
// # Delivery contract
//
// sim.Runner.SweepTo delivers results strictly in ascending trial-index
// order and never concurrently (a reorder window inside the runner bridges
// out-of-order worker completion), so sinks are plain sequential code. The
// JSONL sink's Consume is allocation-free in steady state — hand-rolled
// encoding over reused scratch buffers, memoized fingerprints — so
// streaming adds nothing to the engine hot path's allocation profile
// (asserted by TestJSONLConsumeSteadyStateAllocs and priced by
// BenchmarkSweepJSONL at the repository root).
//
// # The JSONL schema
//
// Each line is one Record: schema version, experiment label, configuration
// fingerprint, global trial index, scenario name, the trial's derived seed,
// the digested outcome (rounds, decisions, sorted decided values, last
// decision round, the three consensus property checks), and the declarative
// Params of the environment (algorithm, detector class, contention manager,
// loss model and rate, CST knobs, crash-schedule digest, trace mode).
// Params deliberately exclude the per-trial seed: they — and the
// fingerprint hashed from them — identify the CONFIGURATION, while the seed
// identifies the trial within it.
//
// The Schema constant versions the format. Readers reject lines with an
// unknown schema number, so shard files from incompatible builds fail
// loudly at merge time instead of folding into silently wrong tables;
// adding new omitempty fields is backward compatible and needs no bump.
// Factory escape hatches (Scenario.BuildProc/BuildLoss/BuildBehavior) are
// closures and cannot be serialized; they appear only as flags in
// Params.Bespoke, and sweeps using them must keep the distinction in the
// scenario Name.
//
// # Sharding and merging
//
// A shard is the subset of a fully expanded sweep whose global trial index
// is congruent to i mod k. Expansion (and splitmix64 per-trial seeding)
// happens before partitioning, so every trial executes identically whatever
// the shard layout, and records carry global indices. ReadRecords reads a
// shard file back; it is the strict mode of ReadRecordsPartial, the one
// line reader, failing with the positioned defect where a salvage read
// would cut a torn tail off. Merge re-sorts records, verifies a complete
// non-overlapping 0..n-1 cover, and reconstructs the exact []sim.Result
// slice of the unsharded run. Whether each record is the one this build
// writes at its index — its experiment, seed, seed schedule, params and
// fingerprint — is decided by its group's plan in internal/replay.
//
// A two-machine sweep of the T3 table:
//
//	machine A:  sweeprun run -exp T3 -shard 0/2 -o a.jsonl
//	machine B:  sweeprun run -exp T3 -shard 1/2 -o b.jsonl
//	anywhere:   sweeprun merge a.jsonl b.jsonl   # byte-identical to benchtab T3
//
// The same works for plain configuration sweeps (sweeprun run -trials N
// <consensus-sim flags>), merged into the statistics and seed-provenance
// report consensus-sim -trials prints.
package sink
