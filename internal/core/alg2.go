package core

import (
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// alg2Phase is the three-phase cycle of Algorithm 2.
type alg2Phase uint8

const (
	alg2Prepare alg2Phase = iota + 1
	alg2Propose
	alg2Accept
)

// Alg2 is Algorithm 2 (Section 7.2): anonymous consensus for environments
// in E(0-◇AC, WS) under eventual collision freedom — the weakest collision
// detector class for which consensus is solvable at all in this setting.
//
// The algorithm cycles through three phases:
//
//   - prepare (1 round): active processes broadcast their estimate;
//     listeners that hear exactly a clean set of values adopt the minimum.
//   - propose (⌈lg|V|⌉ rounds): one round per estimate bit. A process
//     broadcasts in the round of each 1-bit and listens in the rounds of
//     its 0-bits; hearing anything (message or collision) during a 0-bit
//     round reveals a disagreeing estimate and clears the decide flag.
//     Zero completeness is exactly strong enough here: if somebody
//     broadcasts while I am silent, I either receive a message or — if I
//     lose all of them — am guaranteed a collision notification (the Noise
//     Lemma, Lemma 2).
//   - accept (1 round): processes whose decide flag was cleared broadcast a
//     veto; anyone who hears silence (no message, no notification) decides.
//
// It decides by round CST + 2(⌈lg|V|⌉ + 1) (Theorem 2), matching the
// Theorem 6 lower bound for detectors no stronger than half-complete.
type Alg2 struct {
	domain   valueset.Domain
	width    int
	estimate model.Value
	phase    alg2Phase
	bit      int
	decide   bool

	msg model.Message // reusable broadcast buffer (see Automaton.Message)

	decided  bool
	decision model.Value
	halted   bool
}

var (
	_ model.Automaton = (*Alg2)(nil)
	_ model.Decider   = (*Alg2)(nil)
)

// NewAlg2 returns an Algorithm 2 process with the given initial value drawn
// from the given domain.
func NewAlg2(domain valueset.Domain, initial model.Value) *Alg2 {
	a := alg2(domain, initial)
	return &a
}

// alg2 is NewAlg2's process as a value, for an automaton that holds one.
func alg2(domain valueset.Domain, initial model.Value) Alg2 {
	return Alg2{
		domain:   domain,
		width:    domain.BitWidth(),
		estimate: initial,
		phase:    alg2Prepare,
	}
}

// Estimate exposes the current estimate for tests and traces.
func (a *Alg2) Estimate() model.Value { return a.estimate }

// CycleRounds returns the number of rounds in one prepare/propose/accept
// cycle: ⌈lg|V|⌉ + 2.
func (a *Alg2) CycleRounds() int { return a.width + 2 }

// Message implements model.Automaton.
func (a *Alg2) Message(_ int, cmAdvice model.CMAdvice) *model.Message {
	if a.halted {
		return nil
	}
	switch a.phase {
	case alg2Prepare:
		if cmAdvice != model.CMActive {
			return nil
		}
		a.msg = model.Message{Kind: model.KindEstimate, Value: a.estimate}
		return &a.msg
	case alg2Propose:
		if valueset.Bit(a.estimate, a.bit, a.width) == 1 {
			a.msg = model.Message{Kind: model.KindVote}
			return &a.msg
		}
		return nil
	case alg2Accept:
		if !a.decide {
			a.msg = model.Message{Kind: model.KindVeto}
			return &a.msg
		}
		return nil
	default:
		return nil
	}
}

// Deliver implements model.Automaton.
func (a *Alg2) Deliver(_ int, recv *model.RecvSet, cd model.CDAdvice, _ model.CMAdvice) {
	if a.halted {
		return
	}
	switch a.phase {
	case alg2Prepare:
		// Streaming minimum over the received estimates: the prepare rule
		// only needs "did anyone send an estimate" and the smallest one, so
		// no per-round value set is materialized (this map was the dominant
		// allocation of experiment sweeps at large n).
		if cd != model.CDCollision {
			if v, ok := minEstimate(recv); ok {
				a.estimate = v
			}
		}
		a.decide = true
		a.bit = 1
		a.phase = alg2Propose

	case alg2Propose:
		if (recv.Len() > 0 || cd == model.CDCollision) &&
			valueset.Bit(a.estimate, a.bit, a.width) == 0 {
			a.decide = false
		}
		a.bit++
		if a.bit > a.width {
			a.phase = alg2Accept
		}

	case alg2Accept:
		if recv.Len() == 0 && cd != model.CDCollision {
			a.decided = true
			a.decision = a.estimate
			a.halted = true
			return
		}
		a.phase = alg2Prepare
	}
}

// minEstimate returns the minimum estimate-kind value in recv, reporting
// whether any estimate was received at all. It allocates nothing.
func minEstimate(recv *model.RecvSet) (model.Value, bool) {
	var best model.Value
	found := false
	recv.Range(func(m model.Message, _ int) bool {
		if m.Kind == model.KindEstimate && (!found || m.Value < best) {
			best = m.Value
			found = true
		}
		return true
	})
	return best, found
}

// Decided implements model.Decider.
func (a *Alg2) Decided() (model.Value, bool) { return a.decision, a.decided }

// Halted implements model.Decider.
func (a *Alg2) Halted() bool { return a.halted }
