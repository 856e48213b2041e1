package multihop

import (
	"fmt"
	"math/rand"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multiset"
	"adhocconsensus/internal/seedstream"
)

// Node is a multihop protocol participant. The interface mirrors
// model.Automaton without contention advice: multihop protocols in this
// package manage contention themselves (slotting), as real MAC layers do.
type Node interface {
	// Message returns the node's broadcast for round r, or nil.
	Message(r int) *model.Message
	// Deliver completes round r with the received multiset (messages from
	// in-range senders that survived loss, plus the node's own broadcast)
	// and the collision detector advice computed over the node's
	// neighborhood.
	Deliver(r int, recv *model.RecvSet, cd model.CDAdvice)
}

// Network runs synchronized rounds over a topology: each broadcast reaches
// only in-range receivers, each delivery may be lost independently with
// probability LossP, and each receiver's detector advice is computed from
// its own neighborhood's sender count — the single-hop model applied
// per-neighborhood.
type Network struct {
	topo  *Topology
	nodes []Node
	det   *detector.Detector
	lossP float64
	rng   *rand.Rand
	round int
}

// NewNetwork assembles a multihop system. nodes[i] runs at topology node i.
func NewNetwork(topo *Topology, nodes []Node, class detector.Class, lossP float64, seed int64) (*Network, error) {
	if len(nodes) != topo.Size() {
		return nil, fmt.Errorf("multihop: %d nodes for %d positions", len(nodes), topo.Size())
	}
	if lossP < 0 || lossP >= 1 {
		return nil, fmt.Errorf("multihop: loss probability %v out of [0,1)", lossP)
	}
	return &Network{
		topo:  topo,
		nodes: nodes,
		det:   detector.New(class),
		lossP: lossP,
		rng:   seedstream.NewV1(seed),
	}, nil
}

// Round executes one synchronized round and returns the number of
// broadcasters.
func (n *Network) Round() int {
	n.round++
	r := n.round

	sent := make(map[NodeID]model.Message)
	for id, node := range n.nodes {
		if m := node.Message(r); m != nil {
			sent[NodeID(id)] = *m
		}
	}

	for id, node := range n.nodes {
		rcv := NodeID(id)
		recv := multiset.New[model.Message]()
		neighborSenders := 0
		for _, snd := range n.topo.Neighbors(rcv) {
			msg, ok := sent[snd]
			if !ok {
				continue
			}
			neighborSenders++
			if n.rng.Float64() >= n.lossP {
				recv.Add(msg)
			}
		}
		if own, ok := sent[rcv]; ok {
			neighborSenders++
			recv.Add(own) // self-delivery, as in the single-hop model
		}
		advice := n.det.Advise(r, model.ProcessID(rcv+1), neighborSenders, recv.Len())
		node.Deliver(r, recv, advice)
	}
	return len(sent)
}

// RunUntil executes rounds until done returns true or maxRounds is
// reached, returning the number of rounds executed and whether done
// triggered.
func (n *Network) RunUntil(done func() bool, maxRounds int) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		n.Round()
		if done() {
			return n.round, true
		}
	}
	return n.round, done()
}
