// Package multihop extends the single-hop model to multi-hop networks —
// the extension the paper names as future work in its conclusion ("we plan
// to extend our formal model to describe a multihop network ...
// reconsidering already well-studied problems, such as reliable
// broadcast"). It provides:
//
//   - unit-disk topologies (grid, line, random) with BFS distances;
//   - a synchronized-round engine in which each broadcast reaches only the
//     sender's neighbors, per-receiver loss is adversarial, and each
//     receiver's collision detector sees its own neighborhood's
//     contention (the same detector classes as the single-hop model);
//   - a reliable-broadcast (flooding) protocol that uses zero-complete
//     collision detection to keep retrying slots until the whole network
//     is informed, measured against the Ω(D) distance lower bound.
package multihop

import (
	"fmt"
	"math"

	"adhocconsensus/internal/seedstream"
)

// NodeID identifies a node in a multihop topology.
type NodeID int

// Topology is a static multihop network: node positions plus unit-disk
// connectivity.
type Topology struct {
	xs, ys    []float64
	radius    float64
	neighbors [][]NodeID
}

// NewGrid builds a rows×cols grid with the given spacing and radio radius.
func NewGrid(rows, cols int, spacing, radius float64) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("multihop: grid must be at least 1x1")
	}
	t := &Topology{radius: radius}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.xs = append(t.xs, float64(c)*spacing)
			t.ys = append(t.ys, float64(r)*spacing)
		}
	}
	t.buildNeighbors()
	return t, nil
}

// NewLine builds an n-node line topology.
func NewLine(n int, spacing, radius float64) (*Topology, error) {
	return NewGrid(1, n, spacing, radius)
}

// NewRandom scatters n nodes uniformly in a side×side square,
// deterministically under seed.
func NewRandom(n int, side, radius float64, seed int64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("multihop: need at least one node")
	}
	rng := seedstream.NewV1(seed)
	t := &Topology{radius: radius}
	for i := 0; i < n; i++ {
		t.xs = append(t.xs, rng.Float64()*side)
		t.ys = append(t.ys, rng.Float64()*side)
	}
	t.buildNeighbors()
	return t, nil
}

func (t *Topology) buildNeighbors() {
	n := len(t.xs)
	t.neighbors = make([][]NodeID, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx, dy := t.xs[i]-t.xs[j], t.ys[i]-t.ys[j]
			if math.Hypot(dx, dy) <= t.radius {
				t.neighbors[i] = append(t.neighbors[i], NodeID(j))
			}
		}
	}
}

// Size returns the number of nodes.
func (t *Topology) Size() int { return len(t.xs) }

// Neighbors returns the nodes within radio range of id.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.neighbors[id] }

// InRange reports whether b hears a's broadcasts.
func (t *Topology) InRange(a, b NodeID) bool {
	for _, nb := range t.neighbors[a] {
		if nb == b {
			return true
		}
	}
	return false
}

// Distances returns BFS hop distances from src; unreachable nodes get -1.
func (t *Topology) Distances(src NodeID) []int {
	dist := make([]int, t.Size())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.neighbors[cur] {
			if dist[nb] == -1 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// Connected reports whether every node is reachable from node 0.
func (t *Topology) Connected() bool {
	for _, d := range t.Distances(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from src (the broadcast
// problem's trivial round lower bound).
func (t *Topology) Eccentricity(src NodeID) int {
	ecc := 0
	for _, d := range t.Distances(src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over all nodes.
func (t *Topology) Diameter() int {
	diam := 0
	for i := 0; i < t.Size(); i++ {
		if e := t.Eccentricity(NodeID(i)); e > diam {
			diam = e
		}
	}
	return diam
}
