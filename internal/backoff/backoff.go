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
	"sort"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

// maxWindow caps the contention window to keep stabilization times bounded
// under adversarial observation feedback.
const maxWindow = 1 << 12

// Manager is a backoff-based contention manager. Create with New; it is a
// cm.Service and a cm.Observer, and must observe every round it advises.
type Manager struct {
	rng     *rand.Rand
	window  map[model.ProcessID]int
	advised []model.ProcessID // processes advised active in the last round

	winner     model.ProcessID
	haveWinner bool
}

var (
	_ cm.Service  = (*Manager)(nil)
	_ cm.Observer = (*Manager)(nil)
)

// New returns a backoff manager with a deterministic seed.
func New(seed int64) *Manager {
	return &Manager{
		rng:    seedstream.NewV1(seed),
		window: make(map[model.ProcessID]int),
	}
}

// Stabilized reports whether the manager has locked in a single active
// process, and which.
func (m *Manager) Stabilized() (model.ProcessID, bool) { return m.winner, m.haveWinner }

// Advise implements cm.Service. While unstabilized, each alive process is
// advised active with probability 1/window; windows start at 1 (everyone
// contends) and grow under collision feedback.
func (m *Manager) Advise(_ int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	out := make(map[model.ProcessID]model.CMAdvice, len(procs))
	if m.haveWinner && (alive == nil || alive(m.winner)) {
		for _, id := range procs {
			out[id] = model.CMPassive
		}
		out[m.winner] = model.CMActive
		m.advised = []model.ProcessID{m.winner}
		return out
	}
	m.haveWinner = false

	sorted := make([]model.ProcessID, len(procs))
	copy(sorted, procs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	m.advised = m.advised[:0]
	for _, id := range sorted {
		out[id] = model.CMPassive
		if alive != nil && !alive(id) {
			continue
		}
		w := m.window[id]
		if w < 1 {
			w = 1
		}
		if m.rng.Intn(w) == 0 {
			out[id] = model.CMActive
			m.advised = append(m.advised, id)
		}
	}
	return out
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
