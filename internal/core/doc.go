// Package core implements the paper's primary contribution: the consensus
// algorithms of Section 7.
//
//   - Alg1 (Section 7.1): anonymous consensus with a majority-complete
//     eventually-accurate detector (maj-◇AC), a wake-up service, and
//     eventual collision freedom. Decides by round CST+2.
//   - Alg2 (Section 7.2): anonymous consensus with only a zero-complete
//     eventually-accurate detector (0-◇AC) — the weakest useful class —
//     deciding by round CST + 2(⌈lg|V|⌉+1).
//   - Alg3 (Section 7.4): anonymous consensus with a zero-complete accurate
//     detector (0-AC), no contention manager, and NO collision freedom:
//     message delivery is never guaranteed and collision notifications are
//     the only reliable signal. Decides within 8·lg|V| rounds after
//     failures cease.
//   - NonAnon (Section 7.3): the non-anonymous variant that first elects a
//     leader by running Alg2 over the identifier space, then has the leader
//     disseminate its value; terminates in CST + O(min{lg|V|, lg|I|})
//     rounds and recovers from leader crashes by running consecutive
//     gated instances.
//
// All four are implementations of model.Automaton and model.Decider and run
// under internal/engine. They are deterministic and —
// except for NonAnon — anonymous in the formal sense of Definition 3: every
// process runs the identical automaton, differing only in its initial
// value.
//
// Each automaton (Alg1 and its ablation Alg1NoVeto, Alg2, Alg3, NonAnon) is
// a flat value: no field is a pointer, slice, map, channel, function or
// interface, so a copy is an independent clone and the value itself is
// the process's state. NonAnon's election is an Alg2 value it holds, not a
// second copy of the cycle.
package core
