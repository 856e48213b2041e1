package model

import (
	"fmt"

	"adhocconsensus/internal/multiset"
)

// ValidationError describes a violation of the execution constraints of
// Definition 11, identifying the round, process, and constraint violated.
type ValidationError struct {
	Round      int
	Process    ProcessID
	Constraint string
	Detail     string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("execution invalid at round %d, process %d: %s: %s",
		e.Round, e.Process, e.Constraint, e.Detail)
}

// Validate checks the recorded execution prefix against the structural
// constraints of Definition 11 that are expressible over views alone:
//
//	(4) integrity/no-duplication: each receive set is a sub-multiset of the
//	    multiset union of all messages broadcast that round;
//	(5) self-delivery: a broadcaster always receives its own message;
//	(f) fail-state permanence: a crashed process stays crashed and never
//	    broadcasts again.
//
// Constraints 6 and 7 (collision detector and contention manager legality)
// depend on the environment's detector class and manager property and are
// checked by detector.CheckTraces and cm.CheckTrace respectively.
//
// Per-process state is tracked densely against the sorted process table,
// and every check reads the arena's columns: no view is materialized unless
// a violation needs rendering.
func (e *Execution) Validate() error {
	crashed := make([]bool, len(e.Procs))
	sent := multiset.New[Message]() // per-round broadcast union, reused across rounds
	for k := 0; k < e.NumRounds(); k++ {
		if err := e.validateRound(k, crashed, sent); err != nil {
			return err
		}
	}
	return nil
}

// validateRound checks row k of the arena.
func (e *Execution) validateRound(k int, crashed []bool, sent *RecvSet) error {
	a := e.Arena
	number := a.Number(k)
	sent.Reset()
	for i := range e.Procs {
		if m, ok := a.Sent(k, i); ok {
			sent.Add(m)
		}
	}
	for i, id := range e.Procs {
		isCrashed := a.Crashed(k, i)
		m, hasSent := a.Sent(k, i)
		if crashed[i] && !isCrashed {
			return &ValidationError{number, id, "fail-state", "crashed process resurrected"}
		}
		if isCrashed {
			crashed[i] = true
			if hasSent {
				return &ValidationError{number, id, "fail-state", "crashed process broadcast"}
			}
			continue
		}
		for _, p := range a.RecvPairs(k, i) {
			if sent.Count(p.Elem) < p.Count {
				return &ValidationError{number, id, "integrity",
					fmt.Sprintf("received %v not a sub-multiset of sent %v", a.ViewAt(k, i).Recv, sent)}
			}
		}
		if hasSent && !pairsContain(a.RecvPairs(k, i), m) {
			return &ValidationError{number, id, "self-delivery",
				fmt.Sprintf("broadcaster of %v did not receive own message", m)}
		}
	}
	return nil
}

// pairsContain reports whether a receive segment holds at least one copy of
// m.
func pairsContain(pairs []RecvEntry, m Message) bool {
	for _, p := range pairs {
		if p.Elem == m {
			return p.Count > 0
		}
	}
	return false
}

// SatisfiesECFFrom reports whether the recorded prefix is consistent with the
// eventual collision freedom property (Property 1) holding from round rcf:
// in every round r >= rcf with exactly one broadcaster, every non-crashed
// process received that message.
func (e *Execution) SatisfiesECFFrom(rcf int) bool {
	a := e.Arena
	for k := 0; k < e.NumRounds(); k++ {
		if a.Number(k) < rcf || a.Senders(k) != 1 {
			continue
		}
		var msg Message
		for i := range e.Procs {
			if m, ok := a.Sent(k, i); ok {
				msg = m
			}
		}
		for i := range e.Procs {
			if a.Crashed(k, i) {
				continue
			}
			if !pairsContain(a.RecvPairs(k, i), msg) {
				return false
			}
		}
	}
	return true
}
