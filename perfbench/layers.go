package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/query"
	"repro/internal/sic"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Layer replays rebuild a workload's executing pipeline from the layers'
// public API and time each layer on its own, outside the program's tick
// loop: sources emit, the shedder selects at the measured keep ratio,
// fragment executors consume what it keeps, and per-query coordinators
// and SIC accumulators absorb one update per tick.

// execQuery is one executing query pipeline of a workload: its plan, the
// node of each fragment and its source rate. Queries riding a shared
// instance are not listed — they execute nothing of their own.
type execQuery struct {
	id        stream.QueryID
	plan      *query.Plan
	placement []int
	rate      float64
}

// replaySpec is what a replay needs to know about the deployment.
type replaySpec struct {
	queries       []execQuery
	allQueries    int // coordinators and accumulators exist per query, riders included
	hostsPerQuery int
	batchesPerSec float64
	interval, stw stream.Duration
	// keepRatio is the measured kept/arrived tuple ratio; resultSIC the
	// measured mean result SIC fed to the shedder.
	keepRatio, resultSIC float64
	seed                 int64
}

const (
	replayWarmTicks  = 8
	replayTimedTicks = 16
)

type replayFrag struct {
	q       *execQuery
	fi      int
	exec    *query.FragmentExec
	srcs    []*sources.Source
	sicPerT float64
	down    *replayFrag
	inbox   []*stream.Batch
	// emitTo and tickOut are built once so the timed loops allocate no
	// closures.
	emitTo  sources.SinkFunc
	tickOut func(out []stream.Tuple)
}

// replayLayers times sources, shedder, executors, coordinators and SIC
// accumulators over the spec's pipeline and stores the per-layer
// metrics. parent is the enclosing trace span.
func replayLayers(rc *runConfig, parent int, sp replaySpec, m map[string]float64) {
	id := rc.tr.begin("replay.build", parent)
	rng := rand.New(rand.NewSource(sp.seed))
	pool := stream.NewPool()
	stwSec := float64(sp.stw) / float64(stream.Second)
	var frags []*replayFrag
	byNode := map[int][]*replayFrag{}
	byKey := map[fragKey]*replayFrag{}
	nextSrc := stream.SourceID(0)
	for qi := range sp.queries {
		q := &sp.queries[qi]
		fs := make([]*replayFrag, len(q.plan.Fragments))
		for fi, fp := range q.plan.Fragments {
			f := &replayFrag{q: q, fi: fi, exec: query.NewFragmentExec(fp),
				sicPerT: 1 / (q.rate * stwSec * float64(q.plan.NumSources()))}
			off := q.plan.SourceIndexOffset(fi)
			for si, ss := range fp.Sources {
				gen := ss.NewGen(rand.New(rand.NewSource(rng.Int63())), off+si)
				f.srcs = append(f.srcs, sources.New(nextSrc, q.id, stream.FragID(fi), ss.Port,
					q.rate, sp.batchesPerSec, ss.Arity, gen, rng.Int63()))
				nextSrc++
			}
			fs[fi] = f
		}
		for fi, f := range fs {
			if d := q.plan.Downstream[fi]; d >= 0 {
				f.down = fs[d]
			}
			f.emitTo = func(_ *sources.Source, b *stream.Batch) { f.inbox = append(f.inbox, b) }
			f.tickOut = func(out []stream.Tuple) {
				if f.down != nil {
					f.down.exec.Push(f.down.q.plan.Fragments[f.down.fi].UpstreamPort, out)
				}
			}
			byNode[q.placement[fi]] = append(byNode[q.placement[fi]], f)
			byKey[fragKey{q.id, stream.FragID(fi)}] = f
		}
		// Children have higher indices than their consumers (chains and
		// trees alike), so descending order ticks producers first.
		for fi := len(fs) - 1; fi >= 0; fi-- {
			frags = append(frags, fs[fi])
		}
	}
	// Shed node by node in node order, so a seed replays the same way.
	nodeIDs := make([]int, 0, len(byNode))
	for nd := range byNode {
		nodeIDs = append(nodeIDs, nd)
	}
	sort.Ints(nodeIDs)
	rc.tr.end(id)

	var emitNs, execNs, selectNs int64
	var tuples, selectCalls int64
	shedder := core.NewBalanceSIC(sp.seed)
	resultSIC := func(stream.QueryID) float64 { return sp.resultSIC }
	var ib []*stream.Batch
	var kept []keptBatch
	id = rc.tr.begin("replay.pipeline", parent)
	for tick := 0; tick < replayWarmTicks+replayTimedTicks; tick++ {
		timed := tick >= replayWarmTicks
		from := stream.Time(int64(tick) * int64(sp.interval))
		to := from.Add(sp.interval)
		t0 := time.Now()
		for _, f := range frags {
			for _, s := range f.srcs {
				s.Emit(from, to, pool, f.emitTo)
			}
		}
		if timed {
			emitNs += int64(time.Since(t0))
		}
		// Stamp Eq. (1) SIC and shed per node at the measured ratio.
		for _, nd := range nodeIDs {
			nodeFrags := byNode[nd]
			ib = ib[:0]
			n := 0
			for _, f := range nodeFrags {
				for _, b := range f.inbox {
					b.SIC = 0
					for i := range b.Tuples {
						b.Tuples[i].SIC = f.sicPerT
						b.SIC += f.sicPerT
					}
					n += b.Len()
				}
				ib = append(ib, f.inbox...)
			}
			if timed {
				tuples += int64(n)
			}
			if len(ib) == 0 {
				continue
			}
			keepAll := sp.keepRatio >= 1
			var keep []int
			if !keepAll {
				t0 = time.Now()
				keep = shedder.Select(ib, int(math.Ceil(sp.keepRatio*float64(n))), resultSIC)
				if timed {
					selectNs += int64(time.Since(t0))
					selectCalls++
				}
			}
			kept = kept[:0]
			if keepAll {
				for _, b := range ib {
					kept = append(kept, keptBatch{byKey[fragKey{b.Query, b.Frag}], b})
				}
			} else {
				for _, k := range keep {
					b := ib[k]
					kept = append(kept, keptBatch{byKey[fragKey{b.Query, b.Frag}], b})
				}
			}
			t0 = time.Now()
			for _, kb := range kept {
				kb.f.exec.Push(kb.b.Port, kb.b.Tuples)
			}
			if timed {
				execNs += int64(time.Since(t0))
			}
			for _, b := range ib {
				b.Release()
			}
			for _, f := range nodeFrags {
				f.inbox = f.inbox[:0]
			}
		}
		t0 = time.Now()
		for _, f := range frags {
			f.exec.Tick(to, f.tickOut)
		}
		if timed {
			execNs += int64(time.Since(t0))
		}
	}
	rc.tr.end(id)
	m["sources.emit_ns_per_step"] = float64(emitNs) / replayTimedTicks
	m["sources.tuples_per_step"] = float64(tuples) / replayTimedTicks
	m["query.exec_ns_per_step"] = float64(execNs) / replayTimedTicks
	if selectCalls > 0 {
		m["core.select_ns_per_call"] = float64(selectNs) / float64(selectCalls)
	} else {
		m["core.select_ns_per_call"] = 0
	}

	id = rc.tr.begin("replay.coordinator", parent)
	coords := make([]*coordinator.Coordinator, sp.allQueries)
	accs := make([]*sic.Accumulator, sp.allQueries)
	for i := range coords {
		coords[i] = coordinator.New(stream.QueryID(i), coordinator.Acceptance, sp.stw, sp.interval)
		accs[i] = sic.NewAccumulator(sp.stw, sp.interval)
	}
	deltas := make([]float64, sp.hostsPerQuery)
	for i := range deltas {
		deltas[i] = sp.resultSIC / float64(len(deltas)) / float64(sp.stw/sp.interval)
	}
	var coordNs, sicNs int64
	sink := 0.0 // keeps the results live, so the calls cannot be dropped
	for tick := 0; tick < replayWarmTicks+replayTimedTicks; tick++ {
		now := stream.Time(int64(tick+1) * int64(sp.interval))
		t0 := time.Now()
		for _, c := range coords {
			c.ReportAcceptedBatch(now, deltas)
			sink += c.Value(now)
		}
		t1 := time.Now()
		for _, a := range accs {
			a.Add(now, deltas[0])
			sink += a.Sum(now)
		}
		if tick >= replayWarmTicks {
			coordNs += int64(t1.Sub(t0))
			sicNs += int64(time.Since(t1))
		}
	}
	rc.tr.end(id)
	_ = sink
	m["coordinator.ns_per_step"] = float64(coordNs) / replayTimedTicks
	m["sic.ns_per_step"] = float64(sicNs) / replayTimedTicks
}

type fragKey struct {
	q stream.QueryID
	f stream.FragID
}

// keptBatch is a batch the replayed shedder kept, with its consumer.
type keptBatch struct {
	f *replayFrag
	b *stream.Batch
}

// replayedOther is a step's process CPU time minus the layers the
// replays cover (replays run on one goroutine, so their wall time is
// their CPU time): what is left is exchange, fan-out and bookkeeping.
func replayedOther(m map[string]float64, stepCPUNs, selectCallsPerStep float64) {
	m["federation.other_ns_per_step"] = stepCPUNs - m["sources.emit_ns_per_step"] -
		m["query.exec_ns_per_step"] - m["core.select_ns_per_call"]*selectCallsPerStep -
		m["coordinator.ns_per_step"] - m["sic.ns_per_step"]
}

// replayPlanCache times cql.PlanCache.PlanDistributed on the workload's
// statements: cold with an empty cache per call, warm on a cache that
// has seen the text. It returns the replayed hit fraction of the
// submission sequence.
func replayPlanCache(rc *runConfig, parent int, texts []string, frags int, d sources.Dataset, m map[string]float64) float64 {
	id := rc.tr.begin("replay.cql", parent)
	defer rc.tr.end(id)
	cat := cql.DefaultCatalog(d)
	catKey := d.String()
	distinct := map[string]bool{}
	var cold []float64
	for _, t := range texts {
		if distinct[t] {
			continue
		}
		distinct[t] = true
		for r := 0; r < 20; r++ {
			c := cql.NewPlanCache()
			t0 := time.Now()
			if _, _, err := c.PlanDistributed(t, cat, catKey, frags); err != nil {
				rc.ops.op(err, "cql plan replay")
				return 0
			}
			cold = append(cold, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	warmCache := cql.NewPlanCache()
	var warm []float64
	for _, t := range texts {
		t0 := time.Now()
		if _, _, err := warmCache.PlanDistributed(t, cat, catKey, frags); err != nil {
			rc.ops.op(err, "cql plan replay")
			return 0
		}
		warm = append(warm, float64(time.Since(t0))/float64(time.Microsecond))
	}
	rc.ops.op(nil, "cql plan replay")
	st := warmCache.Stats()
	m["cql.plan_us_cold"] = median(cold)
	m["cql.plan_us_warm"] = median(warm)
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}
