package federation

import (
	"fmt"
	"math/rand"

	"repro/internal/stream"
)

// Placement helpers. A placement assigns each fragment of a query to a
// distinct node (§3). The evaluation uses three strategies: balanced
// round-robin (equal node load, Fig. 11), uniformly random distinct nodes
// (Figs. 10, 14), and Zipf-skewed placement modelling sites that
// "primarily host queries of local users" (C1; Fig. 12: "Fragments are
// deployed according to a Zipf distribution").

// UniformPlacement picks k distinct nodes uniformly at random.
func UniformPlacement(rng *rand.Rand, numNodes, k int) []stream.NodeID {
	if k > numNodes {
		panic("federation: more fragments than nodes")
	}
	perm := rng.Perm(numNodes)
	out := make([]stream.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = stream.NodeID(perm[i])
	}
	return out
}

// RoundRobinPlacement assigns fragments to consecutive nodes starting at
// *next, advancing it — spreading total load evenly across nodes.
func RoundRobinPlacement(next *int, numNodes, k int) []stream.NodeID {
	if k > numNodes {
		panic("federation: more fragments than nodes")
	}
	out := make([]stream.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = stream.NodeID((*next + i) % numNodes)
	}
	*next = (*next + k) % numNodes
	return out
}

// ZipfPlacement samples k distinct nodes with Zipf-distributed popularity
// (skew s > 1), modelling the skewed query workload distribution of C1.
func ZipfPlacement(rng *rand.Rand, numNodes, k int, s float64) []stream.NodeID {
	if k > numNodes {
		panic("federation: more fragments than nodes")
	}
	if s <= 1 {
		s = 1.01
	}
	z := rand.NewZipf(rng, s, 1, uint64(numNodes-1))
	chosen := make(map[stream.NodeID]bool, k)
	out := make([]stream.NodeID, 0, k)
	for len(out) < k {
		nd := stream.NodeID(z.Uint64())
		if !chosen[nd] {
			chosen[nd] = true
			out = append(out, nd)
		}
	}
	return out
}

// Placer is a stateful site-assignment helper wrapping the three
// placement strategies behind one name-driven interface, so drivers
// outside the virtual-time engine — notably the TCP transport controller
// — assign fragments to sites exactly as the evaluation does.
type Placer struct {
	strategy string
	numNodes int
	rng      *rand.Rand
	next     int
	// Skew is the Zipf skew parameter (default 1.5; only read by "zipf").
	Skew float64
}

// NewPlacer builds a placer over numNodes sites. strategy is
// "round-robin" (default when empty), "uniform" or "zipf".
func NewPlacer(strategy string, numNodes int, seed int64) (*Placer, error) {
	if strategy == "" {
		strategy = "round-robin"
	}
	switch strategy {
	case "round-robin", "uniform", "zipf":
	default:
		return nil, fmt.Errorf("federation: unknown placement strategy %q", strategy)
	}
	if numNodes < 1 {
		return nil, fmt.Errorf("federation: placer needs at least one node, got %d", numNodes)
	}
	pl := &Placer{strategy: strategy, numNodes: numNodes, Skew: 1.5}
	if strategy != "round-robin" {
		// Round-robin draws nothing; recovery builds a placer per
		// displaced query, so skip the generator's allocation.
		pl.rng = rand.New(rand.NewSource(seed))
	}
	return pl, nil
}

// Place assigns k fragments to distinct sites using the configured
// strategy.
func (p *Placer) Place(k int) ([]stream.NodeID, error) {
	if k > p.numNodes {
		return nil, fmt.Errorf("federation: cannot place %d fragments on %d nodes", k, p.numNodes)
	}
	switch p.strategy {
	case "uniform":
		return UniformPlacement(p.rng, p.numNodes, k), nil
	case "zipf":
		return ZipfPlacement(p.rng, p.numNodes, k, p.Skew), nil
	default:
		return RoundRobinPlacement(&p.next, p.numNodes, k), nil
	}
}

// Table 2 presets.

// LocalTestbed configures the paper's local test-bed: one processing
// node, sources at 400 tuples/sec in 5 batches/sec (Table 2). capacity is
// the processing node's speed in tuples/sec. Non-zero rate fields in cfg
// take precedence, so scaled-down experiment configurations pass through.
func LocalTestbed(cfg Config, capacity float64) (*Engine, stream.NodeID) {
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = 400
	}
	if cfg.BatchesPerSec <= 0 {
		cfg.BatchesPerSec = 5
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1 * stream.Millisecond
	}
	e := NewEngine(cfg)
	id := e.AddNode(capacity)
	return e, id
}

// Emulab configures the paper's Emulab test-bed: up to 18 processing
// nodes on a star LAN with 5 ms links, sources at 150 tuples/sec in
// 3 batches/sec (Table 2). Non-zero rate/latency fields in cfg take
// precedence.
func Emulab(cfg Config, numNodes int, capacity float64) *Engine {
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = 150
	}
	if cfg.BatchesPerSec <= 0 {
		cfg.BatchesPerSec = 3
	}
	if cfg.Latency == 0 {
		cfg.Latency = 5 * stream.Millisecond
	}
	e := NewEngine(cfg)
	e.AddNodes(numNodes, capacity)
	return e
}
