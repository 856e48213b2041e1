// Package roundsync simulates the round-synchronization substrate the
// paper's model assumes (Section 1.3): devices with drifting local clocks
// that rebuild synchronized broadcast rounds from periodic reference
// beacons, in the style of RBS [25] and the round synchronizer of the
// companion systems paper [14].
//
// The consensus layer needs exactly one guarantee from this substrate: at
// any real time inside a round's "core" (outside a guard band around the
// boundaries), every node agrees on the current round number. This package
// computes the analytical skew bound for given drift/jitter/beacon
// parameters and measures the realized skew and round agreement in a
// simulated deployment, so experiments can check the assumption instead of
// hand-waving it.
package roundsync

import (
	"fmt"
	"math"

	"adhocconsensus/internal/seedstream"
)

// Config parameterizes a simulated deployment. All times are in abstract
// seconds; rates are dimensionless.
type Config struct {
	Nodes          int
	MaxDrift       float64 // ρ: |clock rate − 1| <= ρ (e.g. 50e-6 for 50 ppm)
	BeaconInterval float64 // T: real time between reference beacons
	BeaconJitter   float64 // J: receive-time jitter bound per beacon, per node
	RoundLength    float64 // L: nominal round duration
	Duration       float64 // total simulated real time
	Seed           int64
}

// Validate checks the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("roundsync: need at least one node")
	case c.MaxDrift < 0 || c.MaxDrift >= 0.5:
		return fmt.Errorf("roundsync: drift %v out of range [0, 0.5)", c.MaxDrift)
	case c.BeaconInterval <= 0 || c.RoundLength <= 0 || c.Duration <= 0:
		return fmt.Errorf("roundsync: intervals must be positive")
	case c.BeaconJitter < 0:
		return fmt.Errorf("roundsync: jitter must be non-negative")
	}
	return nil
}

// SkewBound returns the analytical worst-case disagreement between two
// nodes' estimates of global time: each node extrapolates from its last
// beacon with an unmodeled rate error of at most ρ over at most T real
// seconds, plus the beacon jitter — so two nodes differ by at most
// 2(ρ·T + J).
func (c Config) SkewBound() float64 {
	return 2 * (c.MaxDrift*c.BeaconInterval + c.BeaconJitter)
}

// GuardBand returns the per-boundary guard band a round schedule needs so
// that all nodes agree on the round number whenever the true time is
// outside the band: half the skew bound on each side of a boundary.
func (c Config) GuardBand() float64 { return c.SkewBound() / 2 }

// Report is the outcome of a simulation.
type Report struct {
	// MaxSkew is the largest observed difference between two nodes'
	// global-time estimates at any sample point.
	MaxSkew float64
	// SkewBound is the analytical bound; MaxSkew <= SkewBound always.
	SkewBound float64
	// AgreementOutsideGuard reports whether every sample point outside the
	// guard band had all nodes agreeing on the round number.
	AgreementOutsideGuard bool
	// AgreementFraction is the fraction of ALL sample points (including
	// those inside guard bands) with full round-number agreement.
	AgreementFraction float64
	// Samples is the number of sample points evaluated.
	Samples int
}

// node is one simulated device: a fixed clock-rate error and, per beacon,
// a jittered reception timestamp it synchronizes on.
type node struct {
	rate float64 // 1 + drift

	lastBeaconIdx int
	lastBeaconLoc float64 // local clock value at beacon reception
}

// localClock returns the node's local clock reading at real time t
// (phase offsets are irrelevant because only differences are used).
func (n *node) localClock(t float64) float64 { return n.rate * t }

// estimate returns the node's estimate of global time at real time t: the
// last beacon's nominal time plus locally-measured elapsed time.
func (n *node) estimate(t float64, beaconInterval float64) float64 {
	elapsedLocal := n.localClock(t) - n.lastBeaconLoc
	return float64(n.lastBeaconIdx)*beaconInterval + elapsedLocal
}

// Simulate runs the deployment and measures skew and round agreement.
func Simulate(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := seedstream.NewV1(cfg.Seed)
	nodes := make([]*node, cfg.Nodes)
	for i := range nodes {
		drift := (2*rng.Float64() - 1) * cfg.MaxDrift
		nodes[i] = &node{rate: 1 + drift}
	}

	// Deliver beacon 0 at time 0 so every node starts synchronized-ish.
	deliverBeacon := func(k int) {
		tk := float64(k) * cfg.BeaconInterval
		for _, n := range nodes {
			jitter := rng.Float64() * cfg.BeaconJitter
			n.lastBeaconIdx = k
			n.lastBeaconLoc = n.localClock(tk + jitter)
		}
	}
	deliverBeacon(0)

	report := &Report{SkewBound: cfg.SkewBound(), AgreementOutsideGuard: true}
	guard := cfg.GuardBand()
	agreeing := 0

	nextBeacon := 1
	// Sample at a step incommensurate with the round length: a grid aligned
	// with round boundaries would land every sample on the floor() edge and
	// report spurious disagreement.
	dt := cfg.RoundLength * 0.437
	for t := dt; t <= cfg.Duration; t += dt {
		for float64(nextBeacon)*cfg.BeaconInterval <= t {
			deliverBeacon(nextBeacon)
			nextBeacon++
		}
		report.Samples++

		minEst, maxEst := math.Inf(1), math.Inf(-1)
		firstRound, agree := -1, true
		for _, n := range nodes {
			est := n.estimate(t, cfg.BeaconInterval)
			minEst = math.Min(minEst, est)
			maxEst = math.Max(maxEst, est)
			round := int(est / cfg.RoundLength)
			if firstRound == -1 {
				firstRound = round
			} else if round != firstRound {
				agree = false
			}
		}
		skew := maxEst - minEst
		if skew > report.MaxSkew {
			report.MaxSkew = skew
		}
		if agree {
			agreeing++
		} else {
			// Disagreement is tolerable only inside a guard band around a
			// round boundary.
			boundary := math.Round(maxEst/cfg.RoundLength) * cfg.RoundLength
			if math.Abs(maxEst-boundary) > guard+skew && math.Abs(minEst-boundary) > guard+skew {
				report.AgreementOutsideGuard = false
			}
		}
	}
	if report.Samples > 0 {
		report.AgreementFraction = float64(agreeing) / float64(report.Samples)
	}
	return report, nil
}
