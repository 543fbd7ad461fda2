package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/federation"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// paper-overload is the paper's Fig. 13 point at paper scale: 18 Emulab
// nodes, 540 mixed complex queries (AVG-all / TOP-5 / COV cycling, 1+i%6
// fragments, uniform placement) over PlanetLab sources at 50 tuples/s,
// node capacity sized for a target result SIC of about 0.35, BalanceSIC
// on every node. Every node sheds on every tick. A run repeats
// fixed-length trials — set up, step, retract everything — until the
// measured time is used; trials of one seed are bit-identical.
const (
	paperNodes   = 18
	paperQueries = 540
	paperRate    = 50
	paperBatches = 3
	paperTarget  = 0.35
	// paperTicks is one trial's length (40 s of virtual time); the
	// engine excludes the first paperWarmup from its statistics.
	paperTicks  = 160
	paperWarmup = 12 * stream.Second
	// paperSkip steps at the start of a trial are not timed: the batch
	// pool and operator scratch are still growing.
	paperSkip = 4
	// paperRetractsPerTick queries leave between two ticks of the
	// teardown, which spreads the retracts over a second of the run
	// instead of a few milliseconds of it. The host's speed swings over
	// such spans, and a burst would time every retract at one moment.
	paperRetractsPerTick = 20
)

func paperFrags(i int) int { return 1 + i%6 }

// paperCapacity sizes uniform node capacity so the aggregate demand of
// the deployment lands at about paperTarget result SIC. Mixed complex
// fragments read 32/3 sources on average (AVG-all 10, TOP-5 20, COV 2).
func paperCapacity() float64 {
	total := 0
	for i := 0; i < paperQueries; i++ {
		total += paperFrags(i)
	}
	demandPerNode := float64(total) * (10.0 + 20.0 + 2.0) / 3.0 * paperRate / paperNodes
	return paperTarget * demandPerNode
}

// paperTrial is one fixed-length run of the deployment.
type paperTrial struct {
	setup    time.Duration
	submits  []time.Duration
	retracts []time.Duration
	steps    *stepper
	cpu      time.Duration
	stepWall time.Duration
	totals   nodeTotals
	res      *federation.Results
	recovery int
	plans    []execQuery
	rt0, rt1 rtSample
	share    node.StateSize
	stateEnd int
	poolEnd  int64
	wall     time.Duration
}

func runPaperTrial(rc *runConfig, workers int, parent int) *paperTrial {
	tr := &paperTrial{}
	id := rc.tr.begin(fmt.Sprintf("trial.workers=%d", workers), parent)
	defer rc.tr.end(id)

	sid := rc.tr.begin("setup", id)
	clock := startCPU()
	cfg := federation.Defaults()
	cfg.Duration = paperTicks * cfg.Interval
	cfg.Warmup = paperWarmup
	cfg.SourceRate = paperRate
	cfg.BatchesPerSec = paperBatches
	cfg.Seed = rc.seed
	cfg.Workers = workers
	e := federation.Emulab(cfg, paperNodes, paperCapacity())
	place := rand.New(rand.NewSource(rc.seed + 31))
	qids := make([]stream.QueryID, 0, paperQueries)
	for i := 0; i < paperQueries; i++ {
		k := paperFrags(i)
		plan := query.MixedComplex(i, k, sources.PlanetLab)
		placement := federation.UniformPlacement(place, paperNodes, k)
		var q stream.QueryID
		var err error
		tr.submits = append(tr.submits, cpuCall(func() { q, err = e.DeployQuery(plan, placement, 0) }))
		if !rc.ops.op(err, "DeployQuery") {
			continue
		}
		qids = append(qids, q)
		pl := make([]int, len(placement))
		for f, nd := range placement {
			pl[f] = int(nd)
		}
		tr.plans = append(tr.plans, execQuery{id: q, plan: plan, placement: pl, rate: paperRate})
	}
	tr.setup = clock.stop()
	rc.tr.end(sid)

	// Step, sampling every query's sliding result SIC after each tick
	// for the time-to-fair-share figure.
	tr.steps = newStepper(rc, e, id, 0)
	cur := make([][]float64, paperTicks)
	lid := rc.tr.begin("steps", id)
	cpu0 := cpuTime()
	tr.rt0 = readRuntime()
	for t := 0; t < paperTicks; t++ {
		tr.stepWall += tr.steps.step(t >= paperSkip)
		row := make([]float64, len(qids))
		for i, q := range qids {
			row[i] = e.CurrentSIC(q)
		}
		cur[t] = row
	}
	tr.rt1 = readRuntime()
	tr.cpu = cpuTime() - cpu0
	rc.tr.end(lid)
	tr.totals = engineTotals(e)
	tr.share = stateTotals(e)
	tr.res = e.Results()
	tr.recovery = ticksToShare(cur, tr.res)

	// Retract everything in seeded random order, from a collected heap so
	// the step loop's pending GC cycle is not charged to the retracts,
	// stepping the engine (untimed) between groups of them.
	runtime.GC()
	rid := rc.tr.begin("retract", id)
	order := rand.New(rand.NewSource(rc.seed + 77)).Perm(len(qids))
	for n, i := range order {
		if n > 0 && n%paperRetractsPerTick == 0 {
			e.Step()
		}
		var ok bool
		tr.retracts = append(tr.retracts, cpuCall(func() { ok = e.RemoveQuery(qids[i]) }))
		var err error
		if !ok {
			err = fmt.Errorf("query %d was not live", qids[i])
		}
		rc.ops.op(err, "RemoveQuery")
	}
	rc.tr.end(rid)
	// In-flight batches land (and are dropped) within the link latency.
	for t := 0; t < 4; t++ {
		e.Step()
	}
	tr.stateEnd = stateCount(stateTotals(e))
	tr.poolEnd = e.Pool().Live()
	return tr
}

// ticksToShare is the first tick (1-based) after deployment at which at
// least half the queries' sliding result SIC has reached 0.9 of their
// mean over the run: how long the federation takes to hand the median
// query its fair share. Under overload single queries keep swinging
// around their share, so "every query" is never reached. It returns
// len(cur)+1 when the median query never gets there.
func ticksToShare(cur [][]float64, res *federation.Results) int {
	for t, row := range cur {
		n := 0
		for i, v := range row {
			if v >= 0.9*res.Queries[i].MeanSIC {
				n++
			}
		}
		if 2*n >= len(row) {
			return t + 1
		}
	}
	return len(cur) + 1
}

// sameResults reports whether two trials produced bit-identical
// fairness results.
func sameResults(a, b *federation.Results) bool {
	if len(a.Queries) != len(b.Queries) ||
		math.Float64bits(a.Jain) != math.Float64bits(b.Jain) ||
		math.Float64bits(a.MeanSIC) != math.Float64bits(b.MeanSIC) {
		return false
	}
	for i := range a.Queries {
		if math.Float64bits(a.Queries[i].MeanSIC) != math.Float64bits(b.Queries[i].MeanSIC) {
			return false
		}
	}
	return true
}

// checkPaperTrial checks one trial's own outputs.
func checkPaperTrial(rc *runConfig, tr *paperTrial) {
	rc.ops.check(len(tr.res.Queries) == paperQueries, "%d of %d queries in the results", len(tr.res.Queries), paperQueries)
	rc.ops.check(tr.res.Jain >= 0.9 && tr.res.MeanSIC > 0 && tr.res.MeanSIC < 1,
		"paper-overload jain %.4f mean SIC %.4f outside the overload regime", tr.res.Jain, tr.res.MeanSIC)
	rc.ops.check(tr.recovery <= paperTicks, "the median query never reached 0.9 of its mean SIC")
}

func runPaperOverload(rc *runConfig) *outcome {
	out := newOutcome()
	nproc := runtime.GOMAXPROCS(0)
	root := rc.tr.begin("paper-overload", -1)
	defer rc.tr.end(root)
	if rc.trace {
		return paperTraced(rc, out, root, nproc)
	}
	start := time.Now()
	var trials []*paperTrial
	for len(trials) < 2 || time.Since(start)+trials[len(trials)-1].wall/2 <= rc.duration() {
		// Each trial starts from a collected heap whose free pages went
		// back to the OS, so the peak RSS does not grow with the count.
		debug.FreeOSMemory()
		t0 := time.Now()
		tr := runPaperTrial(rc, nproc, root)
		tr.wall = time.Since(t0)
		checkPaperTrial(rc, tr)
		if len(trials) > 0 {
			rc.ops.check(sameResults(trials[0].res, tr.res), "trial %d results differ from trial 1", len(trials)+1)
		}
		trials = append(trials, tr)
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
	m := out.e2e
	m["setup_s"] = median(durs(setups, time.Second))
	putTimings(m, rc.ops, "step_ms", steps, time.Millisecond)
	putTimings(m, rc.ops, "submit_us", submits, time.Microsecond)
	putTimings(m, rc.ops, "retract_us", retracts, time.Microsecond)
	m["tuples_per_s"] = float64(arrived) / wall.Seconds()
	m["cpu_ns_per_tuple"] = float64(cpu) / float64(arrived)
	m["recovery_ticks"] = float64(trials[0].recovery)
	m["jain"] = trials[0].res.Jain
	m["mean_sic"] = trials[0].res.MeanSIC
	m["ok_ops_frac"] = rc.ops.okFrac()
	m["max_rss_mb"] = maxRSSMB()
	out.info["trials"] = len(trials)
	out.info["jain_bits"] = fmt.Sprintf("%016x", math.Float64bits(trials[0].res.Jain))
	out.info["mean_sic_bits"] = fmt.Sprintf("%016x", math.Float64bits(trials[0].res.MeanSIC))
	return out
}

// paperTraced runs one nproc trial and one Workers=1 trial, checks they
// agree bit for bit, and replays the layers on the deployment.
func paperTraced(rc *runConfig, out *outcome, root, nproc int) *outcome {
	par := runPaperTrial(rc, nproc, root)
	seq := runPaperTrial(rc, 1, root)
	checkPaperTrial(rc, par)
	rc.ops.check(sameResults(par.res, seq.res), "Workers=1 and Workers=%d results differ", nproc)
	m := out.layer
	nodeLayer(m, par.totals, paperTicks)
	shareLayer(m, par.share)
	m["node.state_left"] = float64(par.stateEnd)
	m["stream.pool_live_end"] = float64(par.poolEnd)
	m["federation.ckpt_step_ms"] = 0
	m["federation.plain_step_ms"] = median(durs(par.steps.plain, time.Millisecond))
	m["federation.kill_ms"] = 0
	m["federation.join_ms"] = 0
	m["parallel.speedup"] = median(durs(seq.steps.plain, time.Nanosecond)) / median(durs(par.steps.plain, time.Nanosecond))
	m["cql.plan_us_cold"] = 0
	m["cql.plan_us_warm"] = 0
	m["cql.cache_hit_frac"] = 0
	m["transport.node_tick_ms"] = 0
	m["transport.ticks_on_time_frac"] = 0
	runtimeLayer(m, par.rt0, par.rt1, paperTicks)
	m["trace.overhead_frac"] = par.steps.overhead()

	keep := float64(par.totals.kept) / float64(par.totals.arrived)
	replayLayers(rc, root, replaySpec{
		queries: par.plans, allQueries: len(par.plans), hostsPerQuery: 4,
		batchesPerSec: paperBatches, interval: federation.Defaults().Interval, stw: federation.Defaults().STW,
		keepRatio: keep, resultSIC: par.res.MeanSIC, seed: rc.seed,
	}, m)
	replayedOther(m, float64(par.cpu)/paperTicks, m["node.select_calls_per_step"])
	out.info["jain_bits"] = fmt.Sprintf("%016x", math.Float64bits(seq.res.Jain))
	out.info["mean_sic_bits"] = fmt.Sprintf("%016x", math.Float64bits(seq.res.MeanSIC))
	out.info["keep_ratio"] = keep
	return out
}
