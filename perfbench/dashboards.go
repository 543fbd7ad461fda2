package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/node"
	"repro/internal/sources"
	"repro/internal/stream"
)

// dashboards is the marginal-query regime: 4,800 two-fragment CQL
// dashboards over 24 underloaded nodes under SharingFull, checkpointing
// every 2 s. While the federation ticks, 24 new dashboards arrive every
// 20 ticks, one node is killed a quarter of the way in and a fresh one
// joins at three quarters; at the end dashboards depart. The shedder
// never runs. A run repeats fixed-length trials until the measured time
// is used; trials of one seed are bit-identical.
const (
	dashNodes   = 24
	dashQueries = 4800
	dashFrags   = 2
	// dashRate is high enough that the steps stream tuples through the
	// windows rather than mostly walk per-query state: at 100 tuples/s
	// the step times swung about twice as much with the host's load as
	// they do at this rate.
	dashRate       = 600
	dashBatches    = 4
	dashArriveN    = 24
	dashArriveGap  = 20
	dashCheckpoint = 2 * stream.Second
	dashWarmup     = 12 * stream.Second
	// dashTicks is one trial's length (50 s of virtual time); the node
	// dies at dashKillAt and a fresh one joins at dashJoinAt. Step cost
	// climbs through a trial as arrivals add pipelines, and jumps at the
	// kill, whose displaced dashboards are re-placed unshared. The kill
	// comes well before the middle tick, so the median step falls on the
	// smooth climb rather than on that jump.
	dashTicks  = 200
	dashKillAt = 50
	dashJoinAt = 150
	// dashDepartures is how many riders leave at the end of a trial,
	// dashDeparturesPerTick of them between two ticks (see
	// paperRetractsPerTick).
	dashDepartures        = 600
	dashDeparturesPerTick = 20
)

// dashShapes are the three time-window aggregate shapes. Time-window
// aggregates split into a partial-aggregate leaf under a merging root,
// so sharing has to recognise interior subtrees too. Every window
// slides by one engine tick, so all ticks do the same kind of work. If
// windows closed on every other tick, step times would fall into two
// equal clusters, and their median would sit in the gap between them,
// where it swings with the host's speed far more than the steps do.
var dashShapes = []string{
	"Select Avg(t.v) From Src [Range 2 sec Slide 250 ms]",
	"Select Count(t.v) From Src [Range 2 sec Slide 250 ms]",
	"Select Max(t.v) From Src [Range 1 sec Slide 250 ms]",
}

// balancedShapes deals n statements with each shape used equally often
// (to within one), in seeded order.
func balancedShapes(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i, p := range rng.Perm(n) {
		out[i] = dashShapes[p%len(dashShapes)]
	}
	return out
}

// teardownOrder picks which dashboards leave at the end of a trial.
type teardownOrder int

const (
	// teardownRiders retracts dashDepartures queries that ride shared
	// instances with every fragment, picked in seeded random order.
	teardownRiders teardownOrder = iota
	// teardownRandom retracts every query in seeded random order.
	teardownRandom
)

// ridesOnly reports whether every fragment of q is a subscriber on a
// shared instance.
func ridesOnly(e *federation.Engine, q stream.QueryID) bool {
	for f, nd := range e.Placement(q) {
		if !e.Node(nd).IsShareSub(q, stream.FragID(f)) {
			return false
		}
	}
	return true
}

// dashDeploy is one submitted dashboard.
type dashDeploy struct {
	q         stream.QueryID
	text      string
	placement []stream.NodeID
	tick      int
}

// dashSubmit submits dashboard i over the live nodes, its fragments on
// consecutive live nodes from i's residue, so dashboards agreeing in
// shape and residue share instances.
func dashSubmit(rc *runConfig, e *federation.Engine, text string, live []stream.NodeID, i, tick int, submits *[]time.Duration) (dashDeploy, bool) {
	placement := make([]stream.NodeID, dashFrags)
	for f := range placement {
		placement[f] = live[(i+f)%len(live)]
	}
	var q stream.QueryID
	var err error
	*submits = append(*submits, cpuCall(func() { q, err = e.SubmitCQL(text, dashFrags, int(sources.Uniform), 0, placement) }))
	if !rc.ops.op(err, "SubmitCQL") {
		return dashDeploy{}, false
	}
	return dashDeploy{q: q, text: text, placement: placement, tick: tick}, true
}

// dashTrial is one fixed-length run of the deployment.
type dashTrial struct {
	e                 *federation.Engine
	deps              []dashDeploy
	setup, wall       time.Duration
	submits, retracts []time.Duration
	steps             *stepper
	stepWall, cpu     time.Duration
	killDur, joinDur  time.Duration
	totals            nodeTotals
	share             node.StateSize
	res               *federation.Results
	cache             cql.PlanCacheStats
	recovery          int
	displaced         int
	rt0, rt1          rtSample
	stateLeft         int
	poolLive          int64
	crashed           bool
}

func runDashTrial(rc *runConfig, order teardownOrder, parent int) *dashTrial {
	tr := &dashTrial{}
	id := rc.tr.begin("trial", parent)
	defer rc.tr.end(id)
	rng := rand.New(rand.NewSource(rc.seed))

	sid := rc.tr.begin("setup", id)
	clock := startCPU()
	cfg := federation.Defaults()
	cfg.Warmup = dashWarmup
	cfg.SourceRate = dashRate
	cfg.BatchesPerSec = dashBatches
	cfg.Sharing = federation.SharingFull
	cfg.Checkpoint = dashCheckpoint
	cfg.Seed = rc.seed
	// One worker: this workload prices queries, not the parallel compute
	// phase (paper-overload covers that), and a sequential step is not
	// stretched by the host's scheduling of a second worker.
	cfg.Workers = 1
	e := federation.NewEngine(cfg)
	e.AddNodes(dashNodes, 1e9)
	live := make([]stream.NodeID, 0, dashNodes+1)
	for i := 0; i < dashNodes; i++ {
		live = append(live, stream.NodeID(i))
	}
	for i, text := range balancedShapes(rng, dashQueries) {
		if d, ok := dashSubmit(rc, e, text, live, i, 0, &tr.submits); ok {
			tr.deps = append(tr.deps, d)
		}
	}
	tr.setup = clock.stop()
	rc.tr.end(sid)
	tr.e = e

	tr.steps = newStepper(rc, e, id, int(dashCheckpoint/cfg.Interval))
	var displaced []stream.QueryID
	var preKill []float64
	lid := rc.tr.begin("steps", id)
	cpu0 := cpuTime()
	tr.rt0 = readRuntime()
	for t := 0; t < dashTicks; t++ {
		if t > 0 && t%dashArriveGap == 0 {
			aid := rc.tr.begin("arrivals", lid)
			for _, text := range balancedShapes(rng, dashArriveN) {
				if d, ok := dashSubmit(rc, e, text, live, len(tr.deps), t, &tr.submits); ok {
					tr.deps = append(tr.deps, d)
				}
			}
			rc.tr.end(aid)
		}
		if t == dashKillAt {
			victim := live[rng.Intn(len(live))]
			for _, d := range tr.deps {
				for _, nd := range e.Placement(d.q) {
					if nd == victim {
						displaced = append(displaced, d.q)
						preKill = append(preKill, e.CurrentSIC(d.q))
						break
					}
				}
			}
			kid := rc.tr.begin("federation.Engine.KillNode", lid)
			k0 := time.Now()
			e.KillNode(victim)
			tr.killDur = time.Since(k0)
			rc.tr.end(kid)
			rc.ops.op(nil, "KillNode")
			live = live[:0]
			for i := 0; i < e.NumNodes(); i++ {
				if e.NodeAlive(stream.NodeID(i)) {
					live = append(live, stream.NodeID(i))
				}
			}
		}
		if t == dashJoinAt {
			jid := rc.tr.begin("federation.Engine.AddNode", lid)
			j0 := time.Now()
			live = append(live, e.AddNode(1e9))
			tr.joinDur = time.Since(j0)
			rc.tr.end(jid)
			rc.ops.op(nil, "AddNode")
		}
		tr.stepWall += tr.steps.step(true)
		if t >= dashKillAt && tr.recovery == 0 && recovered(e, displaced, preKill) {
			tr.recovery = t - dashKillAt + 1
		}
	}
	tr.rt1 = readRuntime()
	tr.cpu = cpuTime() - cpu0
	rc.tr.end(lid)
	tr.displaced = len(displaced)
	tr.totals = engineTotals(e)
	tr.share = stateTotals(e)
	tr.res = e.Results()
	tr.cache = e.PlanCacheStats()
	rc.ops.check(len(displaced) > 0, "the killed node hosted no query")
	rc.ops.check(tr.recovery > 0, "displaced queries never regained 0.9 of their pre-kill SIC")
	rc.ops.check(len(tr.res.Queries) == len(tr.deps), "%d of %d dashboards in the results", len(tr.res.Queries), len(tr.deps))

	// Departures start from a collected heap (see runPaperTrial).
	runtime.GC()
	dashTeardown(rc, tr, order, id)
	return tr
}

func runDashboards(rc *runConfig, order teardownOrder) *outcome {
	out := newOutcome()
	root := rc.tr.begin("dashboards", -1)
	defer rc.tr.end(root)
	start := time.Now()
	var trials []*dashTrial
	for {
		debug.FreeOSMemory() // see runPaperOverload
		t0 := time.Now()
		tr := runDashTrial(rc, order, root)
		tr.wall = time.Since(t0)
		if len(trials) > 0 {
			rc.ops.check(sameResults(trials[0].res, tr.res), "trial %d results differ from trial 1", len(trials)+1)
		}
		trials = append(trials, tr)
		// A traced run replays the layers on its one trial's deployment;
		// the engine is dropped otherwise, so trials do not pile up.
		if tr.crashed || rc.trace || len(trials) >= 2 && time.Since(start)+tr.wall/2 > rc.duration() {
			break
		}
		tr.e, tr.deps, tr.steps.e = nil, nil, nil
	}
	var setups, steps, submits, retracts []time.Duration
	var cpu, wall time.Duration
	var arrived int64
	for _, tr := range trials {
		setups = append(setups, tr.setup)
		steps = append(steps, tr.steps.all...)
		submits = append(submits, tr.submits...)
		retracts = append(retracts, tr.retracts...)
		cpu += tr.cpu
		wall += tr.stepWall
		arrived += tr.totals.arrived
	}
	first, last := trials[0], trials[len(trials)-1]
	m := out.e2e
	m["setup_s"] = median(durs(setups, time.Second))
	putTimings(m, rc.ops, "step_ms", steps, time.Millisecond)
	putTimings(m, rc.ops, "submit_us", submits, time.Microsecond)
	putTimings(m, rc.ops, "retract_us", retracts, time.Microsecond)
	m["tuples_per_s"] = float64(arrived) / wall.Seconds()
	m["cpu_ns_per_tuple"] = float64(cpu) / float64(arrived)
	m["recovery_ticks"] = float64(first.recovery)
	m["jain"] = first.res.Jain
	m["mean_sic"] = first.res.MeanSIC
	m["ok_ops_frac"] = rc.ops.okFrac()
	m["max_rss_mb"] = maxRSSMB()

	l := out.layer
	nodeLayer(l, last.totals, dashTicks)
	shareLayer(l, last.share)
	l["node.state_left"] = float64(last.stateLeft)
	l["stream.pool_live_end"] = float64(last.poolLive)
	l["federation.ckpt_step_ms"] = median(durs(last.steps.ckpt, time.Millisecond))
	l["federation.plain_step_ms"] = median(durs(last.steps.nonCkpt, time.Millisecond))
	l["federation.kill_ms"] = float64(last.killDur) / float64(time.Millisecond)
	l["federation.join_ms"] = float64(last.joinDur) / float64(time.Millisecond)
	l["parallel.speedup"] = 0
	l["cql.cache_hit_frac"] = float64(last.cache.Hits) / float64(last.cache.Hits+last.cache.Misses)
	l["transport.node_tick_ms"] = 0
	l["transport.ticks_on_time_frac"] = 0
	runtimeLayer(l, last.rt0, last.rt1, dashTicks)
	l["trace.overhead_frac"] = last.steps.overhead()
	if rc.trace && last.e != nil {
		texts := make([]string, len(last.deps))
		for i, d := range last.deps {
			texts[i] = d.text
		}
		replayPlanCache(rc, root, texts, dashFrags, sources.Uniform, l)
		keep := 1.0
		if last.totals.arrived > 0 {
			keep = float64(last.totals.kept) / float64(last.totals.arrived)
		}
		cfg := last.e.Config()
		replayLayers(rc, root, replaySpec{
			queries: dashExecuting(last.e, last.deps), allQueries: len(last.deps), hostsPerQuery: dashFrags,
			batchesPerSec: dashBatches, interval: cfg.Interval, stw: cfg.STW,
			keepRatio: keep, resultSIC: last.res.MeanSIC, seed: rc.seed,
		}, l)
		replayedOther(l, float64(last.cpu)/dashTicks, l["node.select_calls_per_step"])
	}
	out.info["trials"] = len(trials)
	out.info["queries"] = len(first.res.Queries)
	out.info["displaced"] = first.displaced
	out.info["retracts_done"] = len(first.retracts)
	return out
}

// recovered reports whether every displaced query is back to 0.9 of its
// pre-kill sliding result SIC.
func recovered(e *federation.Engine, qs []stream.QueryID, pre []float64) bool {
	for i, q := range qs {
		if e.CurrentSIC(q) < 0.9*pre[i] {
			return false
		}
	}
	return true
}

// dashTeardown retracts dashboards in the trial's order, timing each
// RemoveQuery. Departing riders leave in groups with an untimed tick
// between; the full teardown runs without ticks, so that a crash it
// finds comes from a retract and not from a tick. A retract that panics
// is recovered here, at the benchmark's own call: it and every retract
// not yet attempted count as failed and the teardown ends. It records
// the state and pooled batches left behind.
func dashTeardown(rc *runConfig, tr *dashTrial, order teardownOrder, parent int) {
	id := rc.tr.begin("retract", parent)
	defer rc.tr.end(id)
	e := tr.e
	idx := rand.New(rand.NewSource(rc.seed + 77)).Perm(len(tr.deps))
	subs0 := stateTotals(e).Subscriptions
	if order == teardownRiders {
		var riders []int
		for _, i := range idx {
			if len(riders) < dashDepartures && ridesOnly(e, tr.deps[i].q) {
				riders = append(riders, i)
			}
		}
		idx = riders
	}
	for n, i := range idx {
		if order == teardownRiders && n > 0 && n%dashDeparturesPerTick == 0 {
			e.Step()
		}
		d, err := timedRetract(e, tr.deps[i].q)
		tr.retracts = append(tr.retracts, d)
		if !rc.ops.op(err, "RemoveQuery") && isPanic(err) {
			rc.ops.unattempted(len(idx) - n - 1)
			fmt.Fprintf(os.Stderr, "perfbench: teardown crashed at retract %d of %d; %d retracts not attempted\n", n+1, len(idx), len(idx)-n-1)
			rc.ops.check(false, "teardown did not complete")
			tr.crashed, tr.stateLeft, tr.poolLive = true, -1, -1
			tr.e = nil
			return
		}
	}
	// In-flight batches land (and are dropped) within the link latency.
	for t := 0; t < 4; t++ {
		e.Step()
	}
	sz := stateTotals(e)
	tr.stateLeft = stateCount(sz)
	tr.poolLive = e.Pool().Live()
	if order == teardownRiders {
		gone := subs0 - sz.Subscriptions
		rc.ops.check(gone == dashFrags*len(idx), "%d riders left but %d subscriptions went away", len(idx), gone)
		return
	}
	rc.ops.check(tr.stateLeft == 0, "%d state entries left after teardown: %+v", tr.stateLeft, sz)
	rc.ops.check(tr.poolLive == 0, "%d pooled batches live after teardown", tr.poolLive)
}

// panicError is a panic recovered from a call into the program.
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.v) }

func isPanic(err error) bool {
	_, ok := err.(panicError)
	return ok
}

// timedRetract times one RemoveQuery (see cpuCall), turning a panic
// into an error.
func timedRetract(e *federation.Engine, q stream.QueryID) (d time.Duration, err error) {
	d = cpuCall(func() {
		defer func() {
			if v := recover(); v != nil {
				err = panicError{v}
			}
		}()
		if !e.RemoveQuery(q) {
			err = fmt.Errorf("query %d was not live", q)
		}
	})
	return d, err
}

// dashExecuting lists the dashboards that execute their own pipeline:
// the first of each group with the same shape, placement and submission
// tick (the engine's share key), on the placement they hold now.
func dashExecuting(e *federation.Engine, deps []dashDeploy) []execQuery {
	seen := map[string]bool{}
	var out []execQuery
	for _, d := range deps {
		key := fmt.Sprint(d.text, d.placement, d.tick)
		if seen[key] {
			continue
		}
		seen[key] = true
		pl := e.Placement(d.q)
		if pl == nil {
			pl = d.placement
		}
		ints := make([]int, len(pl))
		for i, nd := range pl {
			ints[i] = int(nd)
		}
		out = append(out, execQuery{id: d.q, plan: planCQL(d.text, sources.Uniform, dashFrags), placement: ints, rate: dashRate})
	}
	return out
}
