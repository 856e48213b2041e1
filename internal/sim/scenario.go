package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/core"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/valueset"
)

// Algorithm names a consensus automaton family. Its names live in one
// table (names.go): Name is the recorded name, String the display name.
type Algorithm int

// The algorithm families a Scenario can instantiate. AlgProposeNoVeto is
// the A1 ablation variant; everything else matches the public API.
const (
	AlgPropose Algorithm = iota + 1
	AlgBitByBit
	AlgTreeWalk
	AlgLeaderRelay
	AlgProposeNoVeto
)

// CMMode selects the contention manager; Name is its recorded name.
type CMMode int

// Contention manager choices. The zero value CMAuto resolves to what the
// algorithm expects: a wake-up service for everything but the tree walk.
const (
	CMAuto CMMode = iota
	CMWakeUp
	CMLeader
	CMBackoff
	CMNone
)

// LossMode selects the declarative channel model (ignored when BuildLoss is
// set); Name is its recorded name.
type LossMode int

// Channel loss models, matching the public API's enumeration.
const (
	LossNone LossMode = iota
	LossProbabilistic
	LossCapture
	LossDrop
)

// NoECF disables eventual collision freedom regardless of the auto rule.
const NoECF = -1

// Scenario declares one consensus run. It is pure data plus factory
// closures: nothing in a Scenario may be shared mutable state, so a slice
// of Scenarios can be executed in any order, on any number of workers, with
// identical results.
type Scenario struct {
	// Name labels the scenario in results and sweep reports.
	Name string

	// Algorithm picks the automaton family. Required unless BuildProc is
	// set.
	Algorithm Algorithm
	// Values holds each process's initial value; len(Values) is n. Required.
	Values []model.Value
	// Domain is |V|. Defaults to max(Values)+1.
	Domain uint64
	// IDs are the identifiers for AlgLeaderRelay (default: random distinct
	// IDs drawn from IDSpace with Seed+1).
	IDs []model.Value
	// IDSpace is |I| for AlgLeaderRelay. Defaults to 2^48.
	IDSpace uint64

	// Detector is the collision detector class (zero value: the weakest
	// class the algorithm tolerates).
	Detector detector.Class
	// Race is the first accurate round for eventually-accurate classes
	// (default 1).
	Race int
	// FalsePositiveRate makes an otherwise honest detector noisy before
	// Race, drawing from Seed+2.
	FalsePositiveRate float64
	// BuildBehavior overrides the detector behavior entirely. The factory
	// runs inside the trial and must construct fresh state per call.
	BuildBehavior func(s *Scenario) detector.Behavior

	// CM selects the contention manager; Stable its stabilization round
	// (default 1). CMBackoff seeds from Seed+3.
	CM     CMMode
	Stable int

	// Loss selects the channel model, parameterized by LossP and seeded
	// from Seed+4. BuildLoss overrides the base adversary with a factory
	// (fresh state per call; run inside the trial).
	Loss      LossMode
	LossP     float64
	BuildLoss func(s *Scenario) loss.Adversary
	// ECFRound is the round from which a lone broadcaster is always heard.
	// 0 selects the auto rule: ECF from round 1 unless the algorithm is the
	// tree walk, the loss mode is Drop, or BuildLoss supplies a bespoke
	// adversary (bespoke adversaries state their own delivery guarantees).
	// NoECF (-1) always disables the wrapper.
	ECFRound int

	// Crashes schedules permanent crash failures.
	Crashes model.Schedule

	// MaxRounds bounds the run (default engine.DefaultMaxRounds).
	MaxRounds int
	// RunFullHorizon keeps executing to MaxRounds after all decisions.
	RunFullHorizon bool
	// Trace selects full view recording (zero value) or decisions-only.
	Trace engine.TraceMode
	// DeliveryWorkers shards each round's delivery loop across up to this
	// many goroutines (0 or 1: sequential). Results are byte-identical at
	// any worker count; the engine auto-disables the parallel path for
	// small systems and order-dependent detectors/adversaries. Scenario
	// components are safely shardable by construction: Materialize builds
	// every automaton fresh and shares nothing mutable between them.
	DeliveryWorkers int
	// UseGoroutines only tags the trial's records: sink.ParamsOf copies it
	// into the "goroutines" key, so a recording made with it keeps its
	// fingerprint. Execution is identical either way.
	//
	// Deprecated: every scenario runs on the engine; the flag has no effect
	// on execution.
	UseGoroutines bool

	// Stop, when non-nil, is polled by the round loop once per round: the
	// run aborts with an error wrapping engine.ErrStopped as soon as it
	// reads true. Runner.TrialTimeout arms it as a runaway-trial watchdog;
	// callers may also set it directly for external cancellation.
	Stop *atomic.Bool

	// Seed drives every randomized component of the trial.
	Seed int64
	// SeedSchedule selects how the loss adversary maps Seed onto draws:
	// seedstream.V1 (or 0) is the historical sequential schedule, byte-
	// compatible with every existing recording; seedstream.V2 keys an
	// independent counter stream per (round, receiver), which lets the
	// engines fill loss rows shard-parallel. The two schedules draw
	// different (equally distributed) loss patterns, so results are
	// comparable only within one schedule — sink fingerprints carry the
	// version for exactly that reason.
	SeedSchedule int

	// BuildProc overrides automaton construction (index i is the process's
	// position; process IDs are i+1). The factory runs inside the trial.
	BuildProc func(i int, s *Scenario) model.Automaton
}

// Materialize translates the scenario into an engine configuration,
// constructing every stateful component (automata, detector, contention
// manager, adversary) fresh. Callers executing trials concurrently must
// call Materialize inside the trial, never share its outputs.
func (s *Scenario) Materialize() (*engine.Config, error) {
	var own seeded
	cfg := new(engine.Config)
	if err := s.materialize(cfg, &own); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Check reports the error Materialize would return, without constructing
// the automata: the values, domain, IDs, algorithm, detector, manager and
// loss are checked exactly as Materialize checks them.
func (s *Scenario) Check() error {
	return s.materialize(nil, new(seeded))
}

// materialize is Materialize writing into cfg, with the seeded components
// taken from own: an empty set for Materialize, a sweep worker's own set
// for its trials. A nil cfg only checks the scenario (Check).
func (s *Scenario) materialize(cfg *engine.Config, own *seeded) error {
	if len(s.Values) == 0 {
		return fmt.Errorf("sim: Values must be non-empty")
	}
	domainSize := s.Domain
	if domainSize == 0 {
		for _, v := range s.Values {
			if uint64(v) >= domainSize {
				domainSize = uint64(v) + 1
			}
		}
	}
	domain, err := valueset.NewDomain(domainSize)
	if err != nil {
		return err
	}
	for i, v := range s.Values {
		if !domain.Contains(v) {
			return fmt.Errorf("sim: value %d of process %d outside domain of size %d", v, i+1, domainSize)
		}
	}

	// newProc builds process i's automaton once the switch has checked the
	// algorithm's parameters.
	var newProc func(i int, v model.Value) model.Automaton
	switch {
	case s.BuildProc != nil:
		c := *s // a factory gets a copy, so s itself never escapes
		newProc = func(i int, _ model.Value) model.Automaton { return s.BuildProc(i, &c) }
	case s.Algorithm == AlgPropose:
		newProc = func(_ int, v model.Value) model.Automaton { return core.NewAlg1(v) }
	case s.Algorithm == AlgProposeNoVeto:
		newProc = func(_ int, v model.Value) model.Automaton { return core.NewAlg1NoVeto(v) }
	case s.Algorithm == AlgBitByBit:
		newProc = func(_ int, v model.Value) model.Automaton { return core.NewAlg2(domain, v) }
	case s.Algorithm == AlgTreeWalk:
		newProc = func(_ int, v model.Value) model.Automaton { return core.NewAlg3(domain, v) }
	case s.Algorithm == AlgLeaderRelay:
		idSpaceSize := s.IDSpace
		if idSpaceSize == 0 {
			idSpaceSize = 1 << 48
		}
		idSpace, err := valueset.NewDomain(idSpaceSize)
		if err != nil {
			return err
		}
		ids := s.IDs
		if len(ids) == 0 {
			ids, err = valueset.RandomIDs(len(s.Values), idSpace, reseed(&own.idDraws, s.Seed+1))
			if err != nil {
				return err
			}
		}
		if len(ids) != len(s.Values) {
			return fmt.Errorf("sim: %d IDs for %d processes", len(ids), len(s.Values))
		}
		seen := make(map[model.Value]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				return fmt.Errorf("sim: duplicate ID %d", id)
			}
			seen[id] = true
		}
		newProc = func(i int, v model.Value) model.Automaton { return core.NewNonAnon(idSpace, domain, ids[i], v) }
	default:
		return fmt.Errorf("sim: unknown algorithm %d", s.Algorithm)
	}

	det := s.buildDetector(own)
	manager, err := s.buildCM(own)
	if err != nil {
		return err
	}
	adversary, err := s.buildLoss(own)
	if err != nil || cfg == nil {
		return err
	}
	procs := make(map[model.ProcessID]model.Automaton, len(s.Values))
	initial := make(map[model.ProcessID]model.Value, len(s.Values))
	for i, v := range s.Values {
		procs[model.ProcessID(i+1)] = newProc(i, v)
		initial[model.ProcessID(i+1)] = v
	}
	*cfg = engine.Config{
		Procs:           procs,
		Initial:         initial,
		Detector:        det,
		CM:              manager,
		Loss:            adversary,
		Crashes:         s.Crashes,
		MaxRounds:       s.MaxRounds,
		RunFullHorizon:  s.RunFullHorizon,
		Trace:           s.Trace,
		DeliveryWorkers: s.DeliveryWorkers,
		Stop:            s.Stop,
	}
	return nil
}

// buildDetector resolves the detector class and behavior.
func (s *Scenario) buildDetector(own *seeded) *detector.Detector {
	class := s.Detector
	if class == (detector.Class{}) {
		switch s.Algorithm {
		case AlgPropose, AlgProposeNoVeto:
			class = detector.MajOAC
		case AlgTreeWalk:
			class = detector.ZeroAC
		default:
			class = detector.ZeroOAC
		}
	}
	race := s.Race
	if race == 0 {
		race = 1
	}
	var behavior detector.Behavior = detector.Honest{}
	switch {
	case s.BuildBehavior != nil:
		c := *s
		behavior = s.BuildBehavior(&c)
	case s.FalsePositiveRate > 0:
		behavior = detector.Noisy{P: s.FalsePositiveRate, Rng: reseed(&own.noiseDraws, s.Seed+2)}
	}
	return detector.New(class, detector.WithRace(race), detector.WithBehavior(behavior))
}

// buildCM resolves the contention manager.
func (s *Scenario) buildCM(own *seeded) (cm.Service, error) {
	stable := s.Stable
	if stable == 0 {
		stable = 1
	}
	mode := s.CM
	if mode == CMAuto {
		if s.Algorithm == AlgTreeWalk {
			mode = CMNone
		} else {
			mode = CMWakeUp
		}
	}
	switch mode {
	case CMWakeUp:
		return cm.WakeUp{Stable: stable}, nil
	case CMLeader:
		return cm.NewLeaderElection(stable), nil
	case CMBackoff:
		return own.backoff(s.Seed + 3), nil
	case CMNone:
		return cm.NoCM{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown contention mode %d", mode)
	}
}

// buildLoss resolves the base adversary and the ECF wrapper.
func (s *Scenario) buildLoss(own *seeded) (loss.Adversary, error) {
	if !seedstream.Valid(s.SeedSchedule) {
		return nil, fmt.Errorf("sim: unknown seed schedule v%d", s.SeedSchedule)
	}
	v2 := seedstream.Normalize(s.SeedSchedule) == seedstream.V2
	var base loss.Adversary
	if s.BuildLoss != nil {
		c := *s
		base = s.BuildLoss(&c)
	} else {
		switch s.Loss {
		case LossNone:
			base = loss.None{}
		case LossProbabilistic:
			base = own.probabilistic(s.LossP, s.Seed+4, v2)
		case LossCapture:
			base = own.capture(s.LossP, s.LossP/4, s.Seed+4, v2)
		case LossDrop:
			base = loss.Drop{}
		default:
			return nil, fmt.Errorf("sim: unknown loss mode %d", s.Loss)
		}
	}
	ecf := s.ECFRound
	if ecf == 0 && s.Algorithm != AlgTreeWalk && s.Loss != LossDrop && s.BuildLoss == nil {
		ecf = 1
	}
	if ecf > 0 {
		return loss.ECF{Base: base, From: ecf}, nil
	}
	return base, nil
}

// seeded holds the seeded components that materialize builds from the
// declarative modes: the Probabilistic and Capture adversaries, the backoff
// contention manager, the noisy detector's generator and LeaderRelay's
// default-ID generator, each constructed on first use. A sweep worker
// keeps one set for the whole sweep, so the adversaries' loss matrices and
// scratch and the manager's window map keep their grown capacity. A trial
// that uses a component sets every parameter and reseeds its v1 generator
// in place with rand.Rand.Seed, which leaves it drawing exactly what a new
// seedstream.NewV1 would, so nothing one trial drew or planned reaches the
// next. From an empty set the same calls construct the components that
// NewProbabilistic, NewCapture, their V2 forms and backoff.New would.
type seeded struct {
	prob       *loss.Probabilistic
	capt       *loss.Capture
	backoffCM  *backoff.Manager
	noiseDraws *rand.Rand
	idDraws    *rand.Rand
}

// backoff returns the backoff contention manager drawing from seed, reset
// in place or built on first use.
func (o *seeded) backoff(seed int64) *backoff.Manager {
	if o.backoffCM == nil {
		o.backoffCM = backoff.New(seed)
	} else {
		o.backoffCM.Reset(seed)
	}
	return o.backoffCM
}

// reseed sets *rng to the v1 generator for seed, reseeding it in place or
// building it on first use, and returns it.
func reseed(rng **rand.Rand, seed int64) *rand.Rand {
	if *rng == nil {
		*rng = seedstream.NewV1(seed)
	} else {
		(*rng).Seed(seed)
	}
	return *rng
}

// draws returns the seed schedule, v2 key and v1 generator of an adversary
// drawing from seed: v2 keys its counter streams with seed, and v1 draws
// from rng reseeded.
func draws(rng *rand.Rand, seed int64, v2 bool) (int, int64, *rand.Rand) {
	if v2 {
		return seedstream.V2, seed, rng
	}
	return seedstream.V1, 0, reseed(&rng, seed)
}

// probabilistic returns the Probabilistic adversary losing with
// probability p and drawing from seed under schedule v1 or v2.
func (o *seeded) probabilistic(p float64, seed int64, v2 bool) *loss.Probabilistic {
	if o.prob == nil {
		o.prob = new(loss.Probabilistic)
	}
	a := o.prob
	a.P = p
	a.Schedule, a.Seed, a.Rng = draws(a.Rng, seed, v2)
	return a
}

// capture returns the Capture adversary with the given loss
// probabilities, drawing from seed under schedule v1 or v2.
func (o *seeded) capture(pNone, pLoneLoss float64, seed int64, v2 bool) *loss.Capture {
	if o.capt == nil {
		o.capt = new(loss.Capture)
	}
	a := o.capt
	a.PNone, a.PLoneLoss = pNone, pLoneLoss
	a.Schedule, a.Seed, a.Rng = draws(a.Rng, seed, v2)
	return a
}

// Run materializes and executes the scenario, returning the full engine
// result (execution trace included when Trace is engine.TraceFull).
func Run(s Scenario) (*engine.Result, error) {
	cfg, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	return engine.Run(*cfg)
}
