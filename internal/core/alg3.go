package core

import (
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// alg3Phase is the four-phase cycle of Algorithm 3.
type alg3Phase uint8

const (
	alg3VoteVal alg3Phase = iota + 1
	alg3VoteLeft
	alg3VoteRight
	alg3Recurse
)

// Alg3 is Algorithm 3 (Section 7.4): anonymous consensus for environments
// in E(0-AC, NoCM) in executions that need NOT satisfy eventual collision
// freedom — no message is ever guaranteed to be delivered. With an accurate
// zero-complete detector, every round is nonetheless a reliable one-bit
// broadcast channel: by the Noise Lemma (Lemma 2) plus accuracy, either
// every process observes "somebody broadcast" (a message or a collision
// notification) or every process observes pure silence (Lemma 14).
//
// The processes use that shared bit to walk a balanced binary search tree
// over V in lockstep. Each tree step takes four rounds: vote for the
// current node's value, vote for the left subtree, vote for the right
// subtree, then recurse on the (identical, by Lemma 15) navigation advice.
// A vote for the current value wins immediately; otherwise the walk
// descends toward a voter, or ascends when a crash silenced the subtree it
// was following. Termination is within 8·lg|V| rounds after failures cease
// (Theorem 3); each crash can cost an extra descent-and-ascent, which the
// T4 failure-injection benchmark measures.
type Alg3 struct {
	domain   valueset.Domain
	estimate model.Value

	phase alg3Phase
	curr  valueset.Node

	heard [3]bool // per voting phase: received a message or notification

	msg model.Message // reusable broadcast buffer (see Automaton.Message)

	decided  bool
	decision model.Value
	halted   bool
}

var (
	_ model.Automaton = (*Alg3)(nil)
	_ model.Decider   = (*Alg3)(nil)
)

// NewAlg3 returns an Algorithm 3 process with the given initial value drawn
// from the given domain.
func NewAlg3(domain valueset.Domain, initial model.Value) *Alg3 {
	return &Alg3{
		domain:   domain,
		estimate: initial,
		phase:    alg3VoteVal,
		curr:     domain.Root(),
	}
}

// Current exposes the walk position for tests and traces.
func (a *Alg3) Current() valueset.Node { return a.curr }

// Message implements model.Automaton. Algorithm 3 ignores contention
// manager advice entirely: it is designed for NoCM.
func (a *Alg3) Message(_ int, _ model.CMAdvice) *model.Message {
	if a.halted {
		return nil
	}
	vote := func() *model.Message {
		a.msg = model.Message{Kind: model.KindVote}
		return &a.msg
	}
	switch a.phase {
	case alg3VoteVal:
		if a.estimate == a.curr.Value() {
			return vote()
		}
	case alg3VoteLeft:
		if a.curr.InLeft(a.estimate) {
			return vote()
		}
	case alg3VoteRight:
		if a.curr.InRight(a.estimate) {
			return vote()
		}
	case alg3Recurse:
		// The recurse phase is local computation only (the paper keeps it
		// as its own silent round for clarity; see the §7.4 remark).
	}
	return nil
}

// Deliver implements model.Automaton.
func (a *Alg3) Deliver(_ int, recv *model.RecvSet, cd model.CDAdvice, _ model.CMAdvice) {
	if a.halted {
		return
	}
	heard := recv.Len() > 0 || cd == model.CDCollision
	switch a.phase {
	case alg3VoteVal:
		a.heard[0] = heard
		a.phase = alg3VoteLeft
	case alg3VoteLeft:
		a.heard[1] = heard
		a.phase = alg3VoteRight
	case alg3VoteRight:
		a.heard[2] = heard
		a.phase = alg3Recurse
	case alg3Recurse:
		a.recurse()
		a.phase = alg3VoteVal
	}
}

// recurse applies the navigation advice gathered over the last three voting
// rounds (Definition 21) — identical at every non-crashed process by
// Lemma 15.
func (a *Alg3) recurse() {
	switch {
	case a.heard[0]:
		a.decided = true
		a.decision = a.curr.Value()
		a.halted = true
	case a.heard[1]:
		if left, ok := a.curr.Left(); ok {
			a.curr = left
		}
	case a.heard[2]:
		if right, ok := a.curr.Right(); ok {
			a.curr = right
		}
	default:
		// No votes at all: the voters we were following crashed. Ascend.
		if parent, ok := a.domain.Parent(a.curr); ok {
			a.curr = parent
		}
		// At the root with no votes (everyone else crashed before voting
		// and we are between positions): stay; our own future votes will
		// steer the walk toward our estimate.
	}
}

// Decided implements model.Decider.
func (a *Alg3) Decided() (model.Value, bool) { return a.decision, a.decided }

// Halted implements model.Decider.
func (a *Alg3) Halted() bool { return a.halted }
