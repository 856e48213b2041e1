// Package detector implements the receiver-side collision detectors of
// Section 5 of the paper: the completeness and accuracy properties, the
// eight classes of Figure 1 plus the degenerate NoCD and NoACC classes, the
// class lattice, concrete detectors (a legal-advice window per class filled
// in by a pluggable behavior), and validators that check recorded traces
// against the formal properties.
//
// A collision detector class is formally a *set* of detectors — all those
// whose advice traces satisfy the class's properties for every transmission
// trace. This package represents a class by the constraints it imposes per
// round: when advice ± (collision) is forced by completeness, when advice
// null is forced by accuracy, and when either is allowed. A Behavior chooses
// within the allowed window, which is how both friendly and adversarial
// detectors of the same class (the paper's MAXCD) are obtained.
package detector

import (
	"fmt"
	"math/rand"

	"adhocconsensus/internal/model"
)

// Completeness identifies a completeness property (Properties 4–7). Larger
// values are strictly stronger: they force a collision report in strictly
// more situations.
type Completeness int

// Completeness levels, weakest to strongest.
const (
	CompleteNone     Completeness = iota + 1 // no completeness guarantee
	CompleteZero                             // ± if ALL messages were lost (Property 7)
	CompleteHalf                             // ± if LESS THAN half received (Property 6)
	CompleteMajority                         // ± if NO strict majority received (Property 5)
	CompleteAll                              // ± if ANY message was lost (Property 4)
)

// String returns the paper's name for the property.
func (c Completeness) String() string {
	switch c {
	case CompleteNone:
		return "none"
	case CompleteZero:
		return "0-complete"
	case CompleteHalf:
		return "half-complete"
	case CompleteMajority:
		return "maj-complete"
	case CompleteAll:
		return "complete"
	default:
		return fmt.Sprintf("completeness(%d)", int(c))
	}
}

// Forces reports whether this completeness property forces a collision
// report for a process that received recv of the c messages broadcast in a
// round.
//
// The distinction between majority and half completeness is exactly one
// message: when recv == c/2 (c even), majority completeness forces a report
// (no strict majority was received) while half completeness does not (half
// WAS received). Theorems 1 and 6 show this single message separates
// constant-round from logarithmic-round consensus.
func (c Completeness) Forces(senders, recv int) bool {
	switch c {
	case CompleteAll:
		return recv < senders
	case CompleteMajority:
		return senders > 0 && 2*recv <= senders
	case CompleteHalf:
		return senders > 0 && 2*recv < senders
	case CompleteZero:
		return senders > 0 && recv == 0
	default:
		return false
	}
}

// Accuracy identifies an accuracy property (Properties 8–9). Larger values
// are strictly stronger.
type Accuracy int

// Accuracy levels, weakest to strongest.
const (
	AccuracyNone     Accuracy = iota + 1 // false positives allowed forever
	AccuracyEventual                     // accurate from some unknown round on (Property 9)
	AccuracyAlways                       // never a false positive (Property 8)
)

// String returns the paper's name for the property.
func (a Accuracy) String() string {
	switch a {
	case AccuracyNone:
		return "none"
	case AccuracyEventual:
		return "eventually-accurate"
	case AccuracyAlways:
		return "accurate"
	default:
		return fmt.Sprintf("accuracy(%d)", int(a))
	}
}

// ForcesNull reports whether this accuracy property forces null advice in
// round r for a process that received all senders messages, given that the
// detector's accuracy stabilization round is race (ignored for
// AccuracyAlways and AccuracyNone).
func (a Accuracy) ForcesNull(r, race, senders, recv int) bool {
	if recv != senders {
		return false
	}
	switch a {
	case AccuracyAlways:
		return true
	case AccuracyEventual:
		return r >= race
	default:
		return false
	}
}

// Class is a collision detector class: a completeness property, an accuracy
// property, and (for the degenerate NoCD class) whether advice is pinned to
// ± in all rounds.
type Class struct {
	Name          string
	Completeness  Completeness
	Accuracy      Accuracy
	AlwaysCollide bool // NoCD: the trivial detector returning ± always
}

// The collision detector classes of Figure 1, plus NoCD and NoACC
// (Section 5.3).
var (
	AC      = Class{Name: "AC", Completeness: CompleteAll, Accuracy: AccuracyAlways}
	MajAC   = Class{Name: "maj-AC", Completeness: CompleteMajority, Accuracy: AccuracyAlways}
	HalfAC  = Class{Name: "half-AC", Completeness: CompleteHalf, Accuracy: AccuracyAlways}
	ZeroAC  = Class{Name: "0-AC", Completeness: CompleteZero, Accuracy: AccuracyAlways}
	OAC     = Class{Name: "◇AC", Completeness: CompleteAll, Accuracy: AccuracyEventual}
	MajOAC  = Class{Name: "maj-◇AC", Completeness: CompleteMajority, Accuracy: AccuracyEventual}
	HalfOAC = Class{Name: "half-◇AC", Completeness: CompleteHalf, Accuracy: AccuracyEventual}
	ZeroOAC = Class{Name: "0-◇AC", Completeness: CompleteZero, Accuracy: AccuracyEventual}
	NoACC   = Class{Name: "NoACC", Completeness: CompleteAll, Accuracy: AccuracyNone}
	NoCD    = Class{Name: "NoCD", Completeness: CompleteNone, Accuracy: AccuracyNone, AlwaysCollide: true}
)

// Classes returns all ten classes studied in the paper, in Figure-1 order
// followed by the two degenerate classes.
func Classes() []Class {
	return []Class{AC, MajAC, HalfAC, ZeroAC, OAC, MajOAC, HalfOAC, ZeroOAC, NoACC, NoCD}
}

// String returns the class name.
func (c Class) String() string { return c.Name }

// SubclassOf reports whether every detector in class c is also in class o
// (set inclusion between classes). For the Figure-1 classes this holds
// exactly when c's completeness and accuracy are each at least as strong as
// o's; the trivial always-± NoCD detector satisfies every completeness
// property but violates every accuracy property, giving Lemma 1:
// NoCD ⊆ NoACC.
func (c Class) SubclassOf(o Class) bool {
	if o.AlwaysCollide {
		// Only the pinned detector itself is in NoCD.
		return c.AlwaysCollide
	}
	if c.AlwaysCollide {
		// Always-± satisfies any completeness, and only AccuracyNone.
		return o.Accuracy == AccuracyNone
	}
	return c.Completeness >= o.Completeness && c.Accuracy >= o.Accuracy
}

// Window describes the legal advice for one process in one round.
type Window struct {
	ForcedCollision bool // completeness (or NoCD pinning) forces ±
	ForcedNull      bool // accuracy forces null
}

// Advice returns the forced advice, if any; free reports whether the
// behavior may choose.
func (w Window) Advice() (adv model.CDAdvice, free bool) {
	switch {
	case w.ForcedCollision:
		return model.CDCollision, false
	case w.ForcedNull:
		return model.CDNull, false
	default:
		return 0, true
	}
}

// WindowFor computes the legal-advice window for a process that received
// recv of senders messages in round r, for a detector of this class whose
// accuracy stabilization round is race.
func (c Class) WindowFor(r, race, senders, recv int) Window {
	if c.AlwaysCollide {
		return Window{ForcedCollision: true}
	}
	return Window{
		ForcedCollision: c.Completeness.Forces(senders, recv),
		ForcedNull:      c.Accuracy.ForcesNull(r, race, senders, recv),
	}
}

// Behavior chooses collision detector advice when the class constraints
// leave both options legal: these free slots are where detectors of the
// same class differ, and where adversarial detectors (the paper's maximal
// detectors, Definition 15) live.
type Behavior interface {
	// Choose picks advice for process id in round r given senders
	// broadcasters and recv receptions, knowing either answer is legal.
	Choose(r int, id model.ProcessID, senders, recv int) model.CDAdvice
}

// ConcurrentBehavior marks behaviors whose Choose is pure: stateless and a
// function of its arguments alone, so calls may run concurrently and in any
// order with identical results. The engine's parallel delivery core only
// engages for detectors whose behavior carries this marker — order-dependent
// behaviors (Noisy's sequential RNG draws, bespoke Funcs) silently fall back
// to the sequential path, keeping executions byte-identical.
type ConcurrentBehavior interface {
	Behavior
	// ConcurrentChoose is the marker method; it is never called.
	ConcurrentChoose()
}

// Honest reports a collision exactly when the process actually lost a
// message. An honest behavior makes any class's detector also satisfy
// Property 4 + Property 8 pointwise — the "perfect detector" of the total
// collision model.
type Honest struct{}

// Choose implements Behavior.
func (Honest) Choose(_ int, _ model.ProcessID, senders, recv int) model.CDAdvice {
	if recv < senders {
		return model.CDCollision
	}
	return model.CDNull
}

// ConcurrentChoose marks Honest as pure.
func (Honest) ConcurrentChoose() {}

// Minimal reports a collision only when completeness forces it: the weakest
// legal detector of a class. Under Minimal, a half-complete detector stays
// silent when exactly half the messages are lost — the behavior the
// Theorem 6 lower bound exploits.
type Minimal struct{}

// Choose implements Behavior.
func (Minimal) Choose(_ int, _ model.ProcessID, _, _ int) model.CDAdvice {
	return model.CDNull
}

// ConcurrentChoose marks Minimal as pure.
func (Minimal) ConcurrentChoose() {}

// MaxNoise reports a collision whenever accuracy does not forbid it: the
// noisiest legal detector, used to stress algorithms with false positives
// before the accuracy stabilization round.
type MaxNoise struct{}

// Choose implements Behavior.
func (MaxNoise) Choose(_ int, _ model.ProcessID, _, _ int) model.CDAdvice {
	return model.CDCollision
}

// ConcurrentChoose marks MaxNoise as pure.
func (MaxNoise) ConcurrentChoose() {}

// Noisy reports false positives with probability P when allowed and
// otherwise behaves honestly. The zero value is deterministic-honest.
type Noisy struct {
	P   float64
	Rng *rand.Rand
}

// Choose implements Behavior.
func (n Noisy) Choose(_ int, _ model.ProcessID, senders, recv int) model.CDAdvice {
	if recv < senders {
		return model.CDCollision
	}
	if n.Rng != nil && n.Rng.Float64() < n.P {
		return model.CDCollision
	}
	return model.CDNull
}

// Func adapts a function to the Behavior interface, for bespoke adversaries
// in tests and lower-bound constructions.
type Func func(r int, id model.ProcessID, senders, recv int) model.CDAdvice

// Choose implements Behavior.
func (f Func) Choose(r int, id model.ProcessID, senders, recv int) model.CDAdvice {
	return f(r, id, senders, recv)
}

// Detector is a concrete collision detector: a class, an accuracy
// stabilization round, and a behavior filling the free slots of the legal
// window.
type Detector struct {
	class    Class
	race     int
	behavior Behavior
}

// Option configures a Detector.
type Option interface{ apply(*Detector) }

type raceOption int

func (o raceOption) apply(d *Detector) { d.race = int(o) }

// WithRace sets the accuracy stabilization round for eventually-accurate
// detectors: advice is unconstrained by accuracy before round race and
// accurate from race on. Ignored by always-accurate classes.
func WithRace(race int) Option { return raceOption(race) }

type behaviorOption struct{ b Behavior }

func (o behaviorOption) apply(d *Detector) { d.behavior = o.b }

// WithBehavior sets the behavior used inside the legal window. The default
// is Honest.
func WithBehavior(b Behavior) Option { return behaviorOption{b} }

// New returns a detector of the given class. By default it is honest and,
// if eventually accurate, stabilizes at round 1.
func New(class Class, opts ...Option) *Detector {
	d := &Detector{class: class, race: 1, behavior: Honest{}}
	for _, o := range opts {
		o.apply(d)
	}
	return d
}

// Class returns the detector's class.
func (d *Detector) Class() Class { return d.class }

// Race returns the accuracy stabilization round.
func (d *Detector) Race() int { return d.race }

// Advise returns the detector's advice for process id in round r, given
// that senders processes broadcast and id received recv of those messages.
func (d *Detector) Advise(r int, id model.ProcessID, senders, recv int) model.CDAdvice {
	w := d.class.WindowFor(r, d.race, senders, recv)
	if adv, free := w.Advice(); !free {
		return adv
	}
	return d.behavior.Choose(r, id, senders, recv)
}

// ConcurrentSafe reports whether Advise may be called concurrently and in
// any order with identical results: the class window is always pure, so the
// detector is safe exactly when its behavior is marked ConcurrentBehavior —
// or is never consulted, as for the pinned always-± NoCD class.
func (d *Detector) ConcurrentSafe() bool {
	if d.class.AlwaysCollide {
		return true
	}
	_, ok := d.behavior.(ConcurrentBehavior)
	return ok
}
