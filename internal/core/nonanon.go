package core

import (
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// NonAnon is the non-anonymous consensus algorithm sketched in Section 7.3,
// for environments in E(0-◇AC, WS) under eventual collision freedom. It
// beats Algorithm 2 exactly when the identifier space I is smaller than the
// value set V, terminating in CST + O(min{lg|V|, lg|I|}) rounds:
//
//   - If |V| <= |I| it IS Algorithm 2, run on the values.
//   - Otherwise, rounds are grouped into repeating triples. Phase-1 rounds
//     run a leader election — Algorithm 2's prepare/propose/accept cycle
//     over the identifier space, with each process's own ID as its initial
//     estimate. The elected leader broadcasts its consensus value in
//     phase-2 rounds; processes that miss it broadcast a veto in the
//     following phase-3 round; a clean (silent, notification-free) phase-3
//     round lets everyone who received the value decide it.
//   - Leader crashes are detected as a silent phase-2 round — with a
//     zero-complete detector, silence proves nobody broadcast
//     (Corollary 1). Detection re-opens the election's prepare gate and
//     re-arms estimates to fresh IDs, the paper's consecutive-instances
//     scheme.
//
// Two refinements over the paper's informal sketch (which comes without
// pseudocode or proof):
//
//  1. The sketch lets a non-leader decide on the FIRST phase-2 value it
//     receives. If the leader crashes mid-dissemination before
//     communication stabilizes, one process may decide the dead leader's
//     value while a later leader disseminates a different one. Here every
//     process ADOPTS a received leader value (a future leader disseminates
//     its adopted value, not its original one) and decides only after a
//     clean phase-3 round — by zero completeness, a clean phase-3 proves no
//     veto was broadcast, hence every non-crashed process received and
//     adopted the value.
//
//  2. The sketch runs "consecutive instances" of Algorithm 2; but fresh
//     instances started at per-process decision times would lose the
//     lockstep phase alignment Algorithm 2's safety argument needs. Here
//     the election is one Algorithm 2 value over the identifier space,
//     aligned for all processes, whose clean accept round installs its
//     estimate as leader and restarts the cycle instead of halting; the
//     prepare gate and the estimate re-arm give the same effect the paper
//     intends.
//
// Both refinements preserve the paper's structure, message kinds, and the
// CST + O(min{lg|V|, lg|I|}) bound, which the T5 benchmark measures.
type NonAnon struct {
	id model.Value

	// alg is Algorithm 2. In the plain regime (|V| <= |I|) it runs on the
	// values and is the whole algorithm. In the election regime it runs on
	// the identifier space, from this process's ID, on phase-1 rounds only,
	// where NonAnon gates its prepare broadcasts, re-arms its estimate and
	// turns its accept round into a leader installation.
	alg   Alg2
	elect bool // the election regime: |V| > |I|

	// adopted is the value this process disseminates if elected: its own
	// initial value until a leader value is received.
	adopted model.Value

	leader     model.Value
	haveLeader bool
	leaderDead bool
	rearm      bool // reset alg's estimate to id at the next prepare round
	sawValue   bool // received the leader value in the current cycle's phase 2

	msg model.Message // reusable phase-2 and phase-3 broadcast buffer

	decided  bool
	decision model.Value
	halted   bool
}

var (
	_ model.Automaton = (*NonAnon)(nil)
	_ model.Decider   = (*NonAnon)(nil)
)

// NewNonAnon returns a §7.3 process with the given unique identifier (drawn
// from idDomain) and initial value (drawn from valDomain).
func NewNonAnon(idDomain, valDomain valueset.Domain, id, initial model.Value) *NonAnon {
	n := &NonAnon{id: id, adopted: initial, elect: valDomain.Size > idDomain.Size}
	if n.elect {
		n.alg = alg2(idDomain, id)
	} else {
		n.alg = alg2(valDomain, initial)
	}
	return n
}

// phaseOf maps a global round number to the triple phase: 1, 2, or 3.
func phaseOf(r int) int { return (r-1)%3 + 1 }

// isLeader reports whether this process currently believes it is the leader.
func (n *NonAnon) isLeader() bool { return n.haveLeader && n.leader == n.id }

// Message implements model.Automaton.
func (n *NonAnon) Message(r int, cmAdvice model.CMAdvice) *model.Message {
	if n.halted {
		return nil
	}
	if !n.elect {
		return n.alg.Message(r, cmAdvice)
	}
	switch phaseOf(r) {
	case 1:
		if n.alg.phase == alg2Prepare {
			if n.rearm {
				// Re-arm at the cycle boundary, before this round's
				// broadcast (a mid-cycle reset would desynchronize the bit
				// rounds): a stale estimate must not re-propose the dead
				// leader.
				n.alg.estimate, n.rearm = n.id, false
			}
			if n.haveLeader && !n.leaderDead {
				return nil // contend only while no leader is believed alive
			}
		}
		return n.alg.Message(r, cmAdvice)
	case 2:
		if n.isLeader() {
			n.msg = model.Message{Kind: model.KindLeaderValue, Value: n.adopted}
			return &n.msg
		}
		return nil
	default: // phase 3: veto unless this cycle's value arrived
		if !n.sawValue {
			n.msg = model.Message{Kind: model.KindVeto}
			return &n.msg
		}
		return nil
	}
}

// Deliver implements model.Automaton.
func (n *NonAnon) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, cmAdvice model.CMAdvice) {
	if n.halted {
		return
	}
	if !n.elect {
		n.alg.Deliver(r, recv, cd, cmAdvice)
		n.decision, n.decided = n.alg.Decided()
		n.halted = n.decided
		return
	}
	switch phaseOf(r) {
	case 1:
		if n.alg.phase != alg2Accept {
			n.alg.Deliver(r, recv, cd, cmAdvice)
			return
		}
		// The election's accept round elects instead of deciding: when it
		// is clean and this process kept its decide flag, the estimate
		// becomes the leader, and the cycle restarts either way.
		if n.alg.decide && recv.Len() == 0 && cd != model.CDCollision {
			n.leader, n.haveLeader, n.leaderDead = n.alg.estimate, true, false
		}
		n.alg.phase = alg2Prepare
	case 2:
		n.deliverValue(recv, cd)
	default:
		n.deliverVetoRound(recv, cd)
	}
}

// deliverValue handles a phase-2 round: receive/adopt the leader value, or
// detect the leader's death from provable silence.
func (n *NonAnon) deliverValue(recv *model.RecvSet, cd model.CDAdvice) {
	n.sawValue = false
	recv.Range(func(m model.Message, _ int) bool {
		if m.Kind == model.KindLeaderValue {
			// Adopt regardless of whether our own election has caught up:
			// a future leader must disseminate this value, not its
			// original one.
			n.adopted, n.sawValue = m.Value, true
			return false
		}
		return true
	})
	if recv.Len() == 0 && cd == model.CDNull && n.haveLeader && !n.isLeader() {
		// Provable silence (Corollary 1): the leader did not broadcast, so
		// it crashed (or halted after full dissemination — in which case
		// every process has already adopted its value). Re-arm the
		// election.
		n.leaderDead, n.rearm = true, true
	}
}

// deliverVetoRound handles a phase-3 round: a clean round after a received
// value is the decision trigger.
func (n *NonAnon) deliverVetoRound(recv *model.RecvSet, cd model.CDAdvice) {
	if n.sawValue && recv.Len() == 0 && cd == model.CDNull {
		n.decided = true
		n.decision = n.adopted
		n.halted = true
	}
	n.sawValue = false
}

// Decided implements model.Decider.
func (n *NonAnon) Decided() (model.Value, bool) { return n.decision, n.decided }

// Halted implements model.Decider.
func (n *NonAnon) Halted() bool { return n.halted }

// Leader exposes the currently installed leader for tests: valid only when
// ok is true.
func (n *NonAnon) Leader() (model.Value, bool) { return n.leader, n.haveLeader }
