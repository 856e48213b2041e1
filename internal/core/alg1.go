package core

import (
	"adhocconsensus/internal/model"
)

// alg1Phase is the alternating phase of Algorithm 1.
type alg1Phase uint8

const (
	alg1Proposal alg1Phase = iota + 1
	alg1Veto
)

// Alg1 is Algorithm 1 (Section 7.1): anonymous consensus for environments
// in E(maj-◇AC, WS) under eventual collision freedom. It alternates
// proposal rounds — active processes broadcast their estimate, listeners
// adopt the minimum cleanly-received value — with veto rounds, where any
// process that saw a collision notification or more than one distinct value
// broadcasts a negative acknowledgment. A process decides after a proposal
// round in which it received exactly one value and no collision, followed
// by a silent veto round.
//
// Safety rests on majority completeness: a silent veto round means every
// process received one value and no notification, hence a strict majority
// of the proposal broadcasts; majority sets intersect, so it is the same
// value everywhere (Lemma 5). Termination by CST+2 follows from the wake-up
// service reducing proposal rounds to a lone broadcaster after CST
// (Lemma 8).
type Alg1 struct {
	estimate model.Value
	phase    alg1Phase

	// Observations from the preceding proposal round, consumed by the veto
	// round (the pseudocode's messagesᵢ and CD-adviceᵢ): how many distinct
	// values it carried, capped at 2, and its detector advice.
	propDistinct int
	propCD       model.CDAdvice

	msg model.Message // reusable broadcast buffer (see Automaton.Message)

	decided  bool
	decision model.Value
	halted   bool
}

var (
	_ model.Automaton = (*Alg1)(nil)
	_ model.Decider   = (*Alg1)(nil)
)

// NewAlg1 returns an Algorithm 1 process with the given initial value.
func NewAlg1(initial model.Value) *Alg1 {
	return &Alg1{estimate: initial, phase: alg1Proposal}
}

// Estimate exposes the current estimate for tests and traces.
func (a *Alg1) Estimate() model.Value { return a.estimate }

// Message implements model.Automaton.
func (a *Alg1) Message(_ int, cmAdvice model.CMAdvice) *model.Message {
	if a.halted {
		return nil
	}
	switch a.phase {
	case alg1Proposal:
		if cmAdvice == model.CMActive {
			a.msg = model.Message{Kind: model.KindEstimate, Value: a.estimate}
			return &a.msg
		}
		return nil
	case alg1Veto:
		if a.propCD == model.CDCollision || a.propDistinct > 1 {
			a.msg = model.Message{Kind: model.KindVeto}
			return &a.msg
		}
		return nil
	default:
		return nil
	}
}

// Deliver implements model.Automaton.
func (a *Alg1) Deliver(_ int, recv *model.RecvSet, cd model.CDAdvice, _ model.CMAdvice) {
	if a.halted {
		return
	}
	switch a.phase {
	case alg1Proposal:
		least, distinct := proposals(recv)
		a.propDistinct, a.propCD = distinct, cd
		if cd != model.CDCollision && distinct > 0 {
			a.estimate = least
		}
		a.phase = alg1Veto

	case alg1Veto:
		if recv.Len() == 0 && cd == model.CDNull && a.propDistinct == 1 {
			a.decided = true
			a.decision = a.estimate
			a.halted = true
			return
		}
		a.phase = alg1Proposal
	}
}

// Decided implements model.Decider.
func (a *Alg1) Decided() (model.Value, bool) { return a.decision, a.decided }

// Halted implements model.Decider.
func (a *Alg1) Halted() bool { return a.halted }

// proposals summarizes SET(recv) restricted to estimate messages, the set
// of unique proposed values received, as the rules read it: its minimum
// and its size, capped at 2 (none, one, or more than one). It allocates
// nothing.
func proposals(recv *model.RecvSet) (least model.Value, distinct int) {
	recv.Range(func(m model.Message, _ int) bool {
		if m.Kind == model.KindEstimate {
			if distinct == 0 || m.Value < least {
				least = m.Value
			}
			distinct = min(distinct+1, 2)
		}
		return true
	})
	return least, distinct
}

// Alg1NoVeto is the A1 ablation: Algorithm 1 with the veto phase removed —
// a process decides immediately after any proposal round in which it
// received exactly one value and no collision notification. Without the
// negative-acknowledgment round the majority-intersection argument no
// longer protects later rounds, and the ablation benchmark shows agreement
// violations under partition loss. It exists to demonstrate that the veto
// phase is load-bearing; do not use it for anything else.
type Alg1NoVeto struct {
	estimate model.Value
	msg      model.Message // reusable broadcast buffer
	decided  bool
	decision model.Value
	halted   bool
}

var (
	_ model.Automaton = (*Alg1NoVeto)(nil)
	_ model.Decider   = (*Alg1NoVeto)(nil)
)

// NewAlg1NoVeto returns the ablated process with the given initial value.
func NewAlg1NoVeto(initial model.Value) *Alg1NoVeto {
	return &Alg1NoVeto{estimate: initial}
}

// Message implements model.Automaton.
func (a *Alg1NoVeto) Message(_ int, cmAdvice model.CMAdvice) *model.Message {
	if a.halted || cmAdvice != model.CMActive {
		return nil
	}
	a.msg = model.Message{Kind: model.KindEstimate, Value: a.estimate}
	return &a.msg
}

// Deliver implements model.Automaton.
func (a *Alg1NoVeto) Deliver(_ int, recv *model.RecvSet, cd model.CDAdvice, _ model.CMAdvice) {
	if a.halted {
		return
	}
	least, distinct := proposals(recv)
	if cd != model.CDCollision && distinct > 0 {
		a.estimate = least
	}
	if cd != model.CDCollision && distinct == 1 {
		a.decided = true
		a.decision = a.estimate
		a.halted = true
	}
}

// Decided implements model.Decider.
func (a *Alg1NoVeto) Decided() (model.Value, bool) { return a.decision, a.decided }

// Halted implements model.Decider.
func (a *Alg1NoVeto) Halted() bool { return a.halted }
