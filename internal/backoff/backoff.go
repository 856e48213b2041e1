// Package backoff implements a contention manager by the mechanism the
// paper suggests (Section 1.3): a binary exponential backoff protocol in
// the style of the slotted-ALOHA analyses it cites [16, 69]. It realizes
// the wake-up service property (Property 2) with probability 1: once a
// round passes in which exactly one process was advised active, that
// process is locked in as the stabilized broadcaster.
//
// The paper deliberately abstracts contention management into a service so
// that consensus bounds can be stated relative to the stabilization round;
// this package closes the loop by showing a concrete implementation whose
// recorded advice traces pass cm.WakeUpStabilization, and by measuring its
// stabilization time in the A3 benchmark.
package backoff

import (
	"math/rand"
	"slices"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

// maxWindow caps the contention window to keep stabilization times bounded
// under adversarial observation feedback.
const maxWindow = 1 << 12

// Manager is a backoff-based contention manager. Create with New; it is a
// cm.Service, a cm.DenseAdviser and a cm.Observer, and must observe every
// round it advises.
type Manager struct {
	rng     *rand.Rand
	window  map[model.ProcessID]int
	advised []model.ProcessID // processes advised active in the last round

	winner     model.ProcessID
	haveWinner bool
}

var (
	_ cm.Service      = (*Manager)(nil)
	_ cm.DenseAdviser = (*Manager)(nil)
	_ cm.Observer     = (*Manager)(nil)
)

// New returns a backoff manager with a deterministic seed.
func New(seed int64) *Manager {
	return &Manager{
		rng:    seedstream.NewV1(seed),
		window: make(map[model.ProcessID]int),
	}
}

// Reset returns the manager to the state New(seed) builds, in place: the
// generator is reseeded (it then draws exactly what a new one would), and
// the windows, the advised list and the winner are cleared, keeping their
// storage. A sweep worker resets one manager per trial instead of building
// one.
func (m *Manager) Reset(seed int64) {
	m.rng.Seed(seed)
	clear(m.window)
	m.advised = m.advised[:0]
	m.winner, m.haveWinner = 0, false
}

// Stabilized reports whether the manager has locked in a single active
// process, and which.
func (m *Manager) Stabilized() (model.ProcessID, bool) { return m.winner, m.haveWinner }

// Advise implements cm.Service. While unstabilized, each alive process is
// advised active with probability 1/window; windows start at 1 (everyone
// contends) and grow under collision feedback. The draws go in ascending
// ID order, whatever the order of procs.
func (m *Manager) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	sorted := slices.Clone(procs)
	slices.Sort(sorted)
	advice := make([]model.CMAdvice, len(sorted))
	m.AdviseInto(r, sorted, alive, advice)
	out := make(map[model.ProcessID]model.CMAdvice, len(sorted))
	for i, id := range sorted {
		out[id] = advice[i]
	}
	return out
}

// AdviseInto implements cm.DenseAdviser without allocating: out[i] is the
// advice for procs[i]. On a table sorted by ID, such as the engine's, it
// draws in table order; any other table goes through Advise's sort.
func (m *Manager) AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	if !slices.IsSorted(procs) {
		advice := m.Advise(r, procs, alive)
		for i, id := range procs {
			out[i] = advice[id]
		}
		return
	}
	if m.haveWinner && (alive == nil || alive(m.winner)) {
		for i, id := range procs {
			out[i] = model.CMPassive
			if id == m.winner {
				out[i] = model.CMActive
			}
		}
		m.advised = append(m.advised[:0], m.winner)
		return
	}
	m.haveWinner = false
	m.advised = m.advised[:0]
	for i, id := range procs {
		out[i] = model.CMPassive
		if alive != nil && !alive(id) {
			continue
		}
		w := max(m.window[id], 1)
		if m.rng.Intn(w) == 0 {
			out[i] = model.CMActive
			m.advised = append(m.advised, id)
		}
	}
}

// Observe implements cm.Observer: channel feedback after each round. Two or
// more broadcasters double the windows of the contenders; silence lets
// everyone halve back in; a round in which exactly one process was advised
// active locks that process in as the winner.
func (m *Manager) Observe(_ int, broadcasters int) {
	if m.haveWinner {
		return
	}
	switch {
	case len(m.advised) == 1 && broadcasters <= 1:
		m.winner = m.advised[0]
		m.haveWinner = true
	case broadcasters >= 2:
		for _, id := range m.advised {
			w := m.window[id]
			if w < 1 {
				w = 1
			}
			if w < maxWindow {
				w *= 2
			}
			m.window[id] = w
		}
	case broadcasters == 0:
		for id, w := range m.window {
			if w > 1 {
				m.window[id] = w / 2
			}
		}
	}
}
