package main

import (
	"math/rand"
	"time"

	"repro/internal/federation"
	"repro/internal/node"
	"repro/internal/stream"
)

// nodeTotals sums node counters over a federation.
type nodeTotals struct {
	arrived, kept, shed, selects, selectNs, dropped int64
	maxArrived                                      int64
	nodes                                           int
}

// add counts one node.
func (t *nodeTotals) add(arrived, kept, shed, selects, selectNs, dropped int64) {
	t.arrived += arrived
	t.kept += kept
	t.shed += shed
	t.selects += selects
	t.selectNs += selectNs
	t.dropped += dropped
	t.maxArrived = max(t.maxArrived, arrived)
	t.nodes++
}

// engineTotals sums the engine's node counters (dead nodes included:
// their counters stop at the failure).
func engineTotals(e *federation.Engine) nodeTotals {
	var t nodeTotals
	for i := 0; i < e.NumNodes(); i++ {
		s := e.Node(stream.NodeID(i)).Stats()
		t.add(s.ArrivedTuples, s.KeptTuples, s.ShedTuples, s.ShedInvocations, s.SelectNanos, s.DroppedTuples)
	}
	return t
}

// stateTotals sums StateSize over the live nodes.
func stateTotals(e *federation.Engine) node.StateSize {
	var sz node.StateSize
	for i := 0; i < e.NumNodes(); i++ {
		if !e.NodeAlive(stream.NodeID(i)) {
			continue
		}
		s := e.Node(stream.NodeID(i)).StateSize()
		sz.Fragments += s.Fragments
		sz.Sources += s.Sources
		sz.RateEstimators += s.RateEstimators
		sz.SourceQueries += s.SourceQueries
		sz.KnownSIC += s.KnownSIC
		sz.BufferedBatches += s.BufferedBatches
		sz.SharedInstances += s.SharedInstances
		sz.Subscriptions += s.Subscriptions
	}
	return sz
}

// stateCount is the number of per-query state entries StateSize lists.
func stateCount(s node.StateSize) int {
	return s.Fragments + s.Sources + s.RateEstimators + s.SourceQueries + s.KnownSIC +
		s.BufferedBatches + s.SharedInstances + s.Subscriptions
}

// stepper times Engine.Step. In a traced run a coin picks the traced
// steps: a span around the call plus the step's counter deltas. The
// untraced steps give the tracing overhead without a second run; a coin
// rather than every other step, because emission and checkpoint
// cadences make step cost periodic.
type stepper struct {
	rc     *runConfig
	e      *federation.Engine
	parent int
	n      int
	coin   *rand.Rand
	// all holds every timed step; plain and traced split them in a
	// traced run.
	all, plain, traced []time.Duration
	// ckpt and nonCkpt split steps by the checkpoint cadence (every
	// ckptEvery-th step snapshots operator state; 0 = never).
	ckptEvery     int
	ckpt, nonCkpt []time.Duration
}

func newStepper(rc *runConfig, e *federation.Engine, parent, ckptEvery int) *stepper {
	return &stepper{rc: rc, e: e, parent: parent, ckptEvery: ckptEvery, coin: rand.New(rand.NewSource(1))}
}

// step advances the engine one tick and records its wall time unless
// record is false.
func (s *stepper) step(record bool) time.Duration {
	tracedStep := s.rc.trace && s.coin.Intn(2) == 1
	var before nodeTotals
	var rt0 rtSample
	id := -1
	if tracedStep {
		before = engineTotals(s.e)
		rt0 = readRuntime()
		id = s.rc.tr.begin("federation.Engine.Step", s.parent)
	}
	t0 := time.Now()
	s.e.Step()
	d := time.Since(t0)
	if tracedStep {
		s.rc.tr.end(id)
		after := engineTotals(s.e)
		rt1 := readRuntime()
		s.rc.tr.step(stepDelta{
			Step: s.n, WallNs: int64(d),
			Arrived: after.arrived - before.arrived, Kept: after.kept - before.kept,
			Shed: after.shed - before.shed, Selects: after.selects - before.selects,
			SelectNs: after.selectNs - before.selectNs, Allocs: rt1.allocs - rt0.allocs,
		})
	}
	if record {
		s.all = append(s.all, d)
		if tracedStep {
			s.traced = append(s.traced, d)
		} else {
			s.plain = append(s.plain, d)
		}
		if s.ckptEvery > 0 {
			if (s.n+1)%s.ckptEvery == 0 {
				s.ckpt = append(s.ckpt, d)
			} else {
				s.nonCkpt = append(s.nonCkpt, d)
			}
		}
	}
	s.n++
	return d
}

// overhead is the traced steps' median against the untraced ones'.
func (s *stepper) overhead() float64 {
	p := median(durs(s.plain, time.Nanosecond))
	if p == 0 {
		return 0
	}
	return median(durs(s.traced, time.Nanosecond))/p - 1
}

// nodeLayer stores the in-situ node metrics from a run's counter totals
// over the given number of federation steps.
func nodeLayer(m map[string]float64, t nodeTotals, steps int) {
	m["node.select_ns_per_step"] = float64(t.selectNs) / float64(steps)
	m["node.select_calls_per_step"] = float64(t.selects) / float64(steps)
	m["node.shed_frac"] = 0
	m["node.arrived_skew"] = 0
	if t.arrived > 0 {
		m["node.shed_frac"] = float64(t.shed) / float64(t.arrived)
		m["node.arrived_skew"] = float64(t.maxArrived) / (float64(t.arrived) / float64(t.nodes))
	}
	m["node.dropped_tuples"] = float64(t.dropped)
}

// shareLayer stores share-index sizes and the logical-per-executing
// fragment ratio.
func shareLayer(m map[string]float64, sz node.StateSize) {
	m["node.shared_instances"] = float64(sz.SharedInstances)
	m["node.subscriptions"] = float64(sz.Subscriptions)
	if sz.Fragments > 0 {
		m["node.dedup_ratio"] = float64(sz.Fragments+sz.Subscriptions) / float64(sz.Fragments)
	} else {
		m["node.dedup_ratio"] = 0
	}
}
