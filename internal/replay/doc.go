// Package replay closes the record→replay→verify loop over the streaming
// result pipeline (internal/sink): everything a sharded sweep writes to
// JSONL can be rendered again without re-running a single simulation, and
// any individual recorded trial can be re-executed at full trace fidelity
// and audited against what was recorded.
//
// # Record
//
// Sharded sweeps (cmd/sweeprun run) stream one JSONL record per trial. Grid
// experiments record sim.Scenario digests; the bespoke pipelines — the
// lower-bound constructions T6/T7/T9, the A3 substrates, the M1 multihop
// floods — record universal work items (sink.WorkItem): a kind that
// dispatches to a registered executor, canonical parameters, a seed, and a
// canonical outcome digest. Both kinds carry fingerprints, so shard files
// are self-describing and version-guarded.
//
// # Replay (render without rerun)
//
// Load reads shard streams back; RenderExperiment folds one experiment's
// records into exactly the table the in-process run renders — byte for
// byte — without invoking the engine: grid records merge into sim.Results
// and drive the GridExperiment renderer, work-item records decode their
// outcome digests and drive the WorkExperiment renderer. The group's plan
// checks every record first and the records must cover it, so a stale or
// foreign shard can never fold into a plausible-looking table.
//
// # The plan
//
// A Plan is the shard-record contract of one record group, and its Check
// alone decides whether a record is the one this build writes at its
// index: experiment label, index in range, seed, seed schedule (a typed
// *sink.ScheduleMismatchError), params, a work item's kind and params, and
// fingerprint. GridPlan derives a scenario grid's records, WorkPlan a
// work pipeline's, and SweepPlan a configuration sweep's from its recorded
// sink.Params (fingerprint Params.Fingerprint(), seed of trial i
// sim.TrialSeed(Params.SweepSeed, 0, i)); PlanOf picks one by group name,
// taking a sweep's params from the majority of its records. CheckGroup is
// what merge runs over a group: Check on every record, one record per
// index, and no quarantined work item, since a pipeline's outcome digests
// are its table's only input. Every consumer goes through it: resume
// checks a salvaged prefix at its shard positions (jobs.Segment.Verify),
// merge, replay and verify check the merged group, and sweeprun merge's
// per-shard verdicts run CheckGroup on each file of a rejected set.
//
// # Verify (forensic re-execution)
//
// A recorded claim — an agreement violation, an undecided trial, a
// suspiciously slow seed — is only evidence if the exact execution can be
// reproduced. Selector picks records worth auditing (undecided trials,
// validity/agreement violations, the top-k slowest, or a full decision-
// digest recheck); ReExecute re-runs a flagged seed through the engine at
// engine.TraceFull, compares the fresh run's decision digest field by field
// against the record, validates the recorded columnar trace against the
// model's legality constraints (Definition 11), and emits a trace bundle
// for inspection. The verifier releases each execution's trace arena back
// to the model's reuse pool (Execution.Release), so auditing a long shard
// file is allocation-free in steady state.
//
// cmd/sweeprun wires the loop end to end: "run" records, "replay" renders
// from disk, "verify" re-executes flagged seeds. The public API mirrors the
// verify side for configuration sweeps as Config.Replay and
// Config.ReplayFlagged.
package replay
