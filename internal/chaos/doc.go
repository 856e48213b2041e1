// Package chaos is the deterministic fault-injection harness behind the
// sweep layer's crash-safety claims. Every recovery path the runner, sinks,
// and sweeprun advertise — panic quarantine, aborted sink writes, torn
// shard files, runaway-trial deadlines — is exercised by wrapping a healthy
// component with one of the injectors here and asserting the recovery in a
// plain unit test (and in the CI chaos smoke), instead of being claimed
// from code inspection.
//
// The injectors mirror the fault model the paper's algorithms live with:
// processes crash (PanicProc, PanicItem), messages and writes are lost
// mid-flight (TornWriter, Sink.FailEvery), and components stall past their
// deadlines (Runaway, StallItem, Sink stalls). All injection points are
// counted or seeded — never clock- or scheduling-dependent — so a chaos
// test that passes once passes always, and the byte-identity contracts can
// be asserted on faulty runs exactly like healthy ones:
//
//   - Sink wraps any sim.ResultSink with counted Consume failures, seeded
//     probabilistic failures, and counted stalls.
//   - TornWriter truncates an io.Writer at a byte offset, reproducing what
//     a killed process leaves on disk for sink.ReadRecordsPartial to
//     salvage.
//   - PanicProc and Runaway are drop-in automata: one panics mid-round
//     (quarantine path), one never decides (TrialTimeout watchdog path).
//   - PanicItem, FailItem, and StallItem wrap work-item executors with the
//     same faults at a chosen global item index.
package chaos
