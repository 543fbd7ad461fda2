package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cql"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
	"repro/internal/transport"
)

// net-overload is a TCP federation inside the benchmark process: one
// loopback NodeServer per CPU and a Controller, running 96 two-fragment
// CQL aggregates whose partial and merge fragments sit on different
// nodes, so every result crosses the wire. Sources emit PlanetLab data
// on the wall clock (open loop) at about 2.5× the nodes' capacity;
// sharing is off.
const (
	netQueries  = 96
	netFrags    = 2
	netRate     = 1000
	netBatches  = 10
	netOverload = 2.5
	netInterval = 50 * time.Millisecond
	netSTW      = 2 * time.Second
	netWarmup   = 3 * time.Second
	// A run spends netSetupShare of its time building federations that
	// do not run: each submits its queries, retracts them and shuts down
	// again. Half of that time comes before the federation that runs is
	// built and half after it has stopped, with at least netMinSetups
	// builds in each half. The host's speed drifts over seconds, so builds
	// spread over the whole run time set-up, submit and retract against
	// its average rather than against one moment of it.
	netSetupShare = 0.4
	netMinSetups  = 4
)

// netFed is one built federation.
type netFed struct {
	servers []*transport.NodeServer
	ctrl    *transport.Controller
	qids    []stream.QueryID
	texts   []string
	places  [][]int
}

// close stops the servers and waits for each to finish.
func (f *netFed) close() {
	if f.ctrl != nil {
		f.ctrl.Shutdown()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, s := range f.servers {
		select {
		case <-s.Stopped():
		case <-time.After(10 * time.Second):
			fmt.Fprintf(os.Stderr, "perfbench: node server %s did not stop\n", s.Name)
		}
	}
}

// netCapacity gives each node netOverload times less capacity than the
// source tuples it receives: every query has one source, on the node of
// its partial fragment, and the partials alternate between the nodes.
func netCapacity(nodes int) float64 {
	return netQueries * netRate / float64(nodes) / netOverload
}

func netBuild(rc *runConfig, nodes int, rng *rand.Rand, submits *[]time.Duration) (*netFed, error) {
	f := &netFed{}
	for i := 0; i < nodes; i++ {
		s, err := transport.NewNodeServer(transport.NodeServerConfig{
			Name: fmt.Sprintf("n%d", i), Addr: "127.0.0.1:0",
			CapacityPerSec: netCapacity(nodes), Seed: rc.seed + int64(i), Quiet: true,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
	}
	addrs := make([]string, nodes)
	for i, s := range f.servers {
		addrs[i] = s.Addr()
	}
	ctrl, err := transport.NewController(transport.ControllerConfig{
		STW: stream.Duration(netSTW / time.Millisecond), Interval: stream.Duration(netInterval / time.Millisecond),
		Seed: rc.seed, HeartbeatTimeout: 10 * time.Second,
	}, addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	f.ctrl = ctrl
	for i, text := range balancedShapes(rng, netQueries) {
		// Fragment 0 merges, fragment 1 holds the source and the partial
		// aggregate: opposite nodes, so partials cross the wire.
		placement := []int{(i + 1) % nodes, i % nodes}
		var q stream.QueryID
		var err error
		*submits = append(*submits, cpuCall(func() {
			q, err = ctrl.Submit(text, netFrags, int(sources.PlanetLab), netRate, netBatches, placement)
		}))
		if !rc.ops.op(err, "Controller.Submit") {
			continue
		}
		f.qids = append(f.qids, q)
		f.texts = append(f.texts, text)
		f.places = append(f.places, placement)
	}
	return f, nil
}

// roundSample is what the benchmark sees of one controller broadcast
// round: when it started, the process CPU and runtime counters then,
// and each query's disseminated result SIC.
type roundSample struct {
	cpu    time.Duration
	traced bool
	sics   map[stream.QueryID]float64
}

func runNetOverload(rc *runConfig) *outcome {
	out := newOutcome()
	root := rc.tr.begin("net-overload", -1)
	defer rc.tr.end(root)
	nodes := runtime.NumCPU()
	if nodes < 2 {
		nodes = 2
	}
	var setups, submits, retracts []time.Duration
	build := func() *netFed {
		runtime.GC()
		id := rc.tr.begin("setup", root)
		rng := rand.New(rand.NewSource(rc.seed))
		clock := startCPU()
		f, err := netBuild(rc, nodes, rng, &submits)
		setups = append(setups, clock.stop())
		rc.tr.end(id)
		if !rc.ops.op(err, "build federation") {
			return nil
		}
		return f
	}
	start := time.Now()
	// cycle builds, empties and shuts down federations, at least
	// netMinSetups times and until the run is until old.
	cycle := func(until time.Duration) bool {
		for n := 0; n < netMinSetups || time.Since(start) < until; n++ {
			f := build()
			if f == nil {
				return false
			}
			rid := rc.tr.begin("retract", root)
			for _, q := range f.qids {
				var err error
				retracts = append(retracts, cpuCall(func() { err = f.ctrl.Retract(q) }))
				rc.ops.op(err, "Controller.Retract")
			}
			rc.tr.end(rid)
			f.close()
		}
		return true
	}
	setupFor := time.Duration(netSetupShare * float64(rc.duration()))
	if !cycle(setupFor / 2) {
		return out
	}
	fed := build()
	if fed == nil {
		return out
	}

	// One sample per broadcast round, taken on the controller's ticker
	// goroutine the first time a round reports a query.
	// In a traced run a coin picks the traced rounds (see stepper).
	var rounds []roundSample
	var lastNow stream.Time = -1
	coin := rand.New(rand.NewSource(1))
	fed.ctrl.OnSIC(func(q stream.QueryID, now stream.Time, v float64) {
		if now != lastNow {
			lastNow = now
			r := roundSample{cpu: cpuTime(), sics: make(map[stream.QueryID]float64, len(fed.qids))}
			if rc.trace && coin.Intn(2) == 1 {
				r.traced = true
				rc.tr.end(rc.tr.begin("transport.Controller.round", root))
				rc.tr.step(stepDelta{Step: len(rounds), Allocs: readRuntime().allocs})
			}
			rounds = append(rounds, r)
		}
		rounds[len(rounds)-1].sics[q] = v
	})
	runFor := rc.duration() - setupFor
	if runFor < 2*netWarmup {
		runFor = 2 * netWarmup
	}
	id := rc.tr.begin("transport.Controller.Run", root)
	cpu0 := cpuTime()
	rt0 := readRuntime()
	t0 := time.Now()
	res, err := fed.ctrl.Run(runFor, netWarmup)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	rt1 := readRuntime()
	rc.tr.end(id)
	fed.ctrl = nil // Run stopped the nodes
	fed.close()
	if !rc.ops.op(err, "Controller.Run") || !cycle(rc.duration()) {
		return out
	}

	// Checks: every query reported, nothing dropped, no failure seen.
	for _, q := range fed.qids {
		v, ok := res.PerQuery[q]
		rc.ops.check(ok && v > 0, "query %d missing or zero in the results (%v)", q, v)
	}
	// The stop stats carry no select time.
	var totals nodeTotals
	var ticks, tickNs int64
	share := node.StateSize{Fragments: netFrags * len(fed.qids)} // sharing is off
	for _, n := range res.Nodes {
		totals.add(n.ArrivedTuples, n.KeptTuples, n.ShedTuples, n.ShedInvocations, 0, n.DroppedTuples)
		ticks += n.Ticks
		tickNs += n.TickNanos
		share.SharedInstances += n.SharedInstances
		share.Subscriptions += n.Subscriptions
	}
	rc.ops.check(len(res.Nodes) == nodes, "stats from %d of %d nodes", len(res.Nodes), nodes)
	rc.ops.check(totals.dropped == 0, "%d tuples dropped", totals.dropped)
	rc.ops.check(len(res.Recoveries) == 0, "%d failure recoveries in an undisturbed run", len(res.Recoveries))
	if !rc.ops.check(totals.arrived > 0 && ticks > 0, "no tuples arrived") {
		return out
	}

	// Per-round process CPU after warm-up: the cost of one networked tick.
	var roundCPU, plainCPU, tracedCPU []time.Duration
	warmRounds := int(netWarmup / netInterval)
	for i := warmRounds + 1; i < len(rounds); i++ {
		d := rounds[i].cpu - rounds[i-1].cpu
		roundCPU = append(roundCPU, d)
		if rounds[i-1].traced {
			tracedCPU = append(tracedCPU, d)
		} else {
			plainCPU = append(plainCPU, d)
		}
	}

	m := out.e2e
	m["setup_s"] = median(durs(setups, time.Second))
	putTimings(m, rc.ops, "step_ms", roundCPU, time.Millisecond)
	putTimings(m, rc.ops, "submit_us", submits, time.Microsecond)
	putTimings(m, rc.ops, "retract_us", retracts, time.Microsecond)
	m["tuples_per_s"] = float64(totals.arrived) / wall.Seconds()
	m["cpu_ns_per_tuple"] = float64(cpu) / float64(totals.arrived)
	m["recovery_ticks"] = float64(roundsToShare(rounds, fed.qids))
	m["jain"] = res.Jain
	m["mean_sic"] = res.MeanSIC
	m["ok_ops_frac"] = rc.ops.okFrac()
	m["max_rss_mb"] = maxRSSMB()

	l := out.layer
	// A federation step is one node tick on every node.
	nodeLayer(l, totals, int(ticks)/nodes)
	shareLayer(l, share)
	l["node.state_left"] = 0
	l["stream.pool_live_end"] = 0
	l["federation.ckpt_step_ms"] = 0
	l["federation.plain_step_ms"] = 0
	l["federation.kill_ms"] = 0
	l["federation.join_ms"] = 0
	l["parallel.speedup"] = 0
	l["transport.node_tick_ms"] = float64(tickNs) / float64(ticks) / 1e6
	l["transport.ticks_on_time_frac"] = float64(ticks) / (float64(nodes) * float64(wall) / float64(netInterval))
	runtimeLayer(l, rt0, rt1, len(rounds))
	l["trace.overhead_frac"] = 0
	if p := median(durs(plainCPU, time.Nanosecond)); rc.trace && p > 0 {
		l["trace.overhead_frac"] = median(durs(tracedCPU, time.Nanosecond))/p - 1
	}
	if rc.trace {
		l["cql.cache_hit_frac"] = replayPlanCache(rc, root, fed.texts, netFrags, sources.PlanetLab, l)
		var qs []execQuery
		for i, q := range fed.qids {
			qs = append(qs, execQuery{id: q, plan: planCQL(fed.texts[i], sources.PlanetLab, netFrags), placement: fed.places[i], rate: netRate})
		}
		replayLayers(rc, root, replaySpec{
			queries: qs, allQueries: len(qs), hostsPerQuery: netFrags,
			batchesPerSec: netBatches, interval: stream.Duration(netInterval / time.Millisecond),
			stw:       stream.Duration(netSTW / time.Millisecond),
			keepRatio: float64(totals.kept) / float64(totals.arrived), resultSIC: res.MeanSIC, seed: rc.seed,
		}, l)
		replayedOther(l, median(durs(roundCPU, time.Nanosecond)), l["node.select_calls_per_step"])
	}
	out.info["rounds"] = len(rounds)
	out.info["nodes"] = nodes
	return out
}

// roundsToShare counts broadcast rounds from the start of the run until
// at least half the queries' disseminated result SIC has reached 0.9 of
// their own median over the second half of the run (the engine
// workloads' median-query criterion, in controller rounds).
func roundsToShare(rounds []roundSample, qs []stream.QueryID) int {
	ref := make(map[stream.QueryID]float64, len(qs))
	for _, q := range qs {
		var xs []float64
		for _, r := range rounds[len(rounds)/2:] {
			xs = append(xs, r.sics[q])
		}
		ref[q] = median(xs)
	}
	for i, r := range rounds {
		n := 0
		for _, q := range qs {
			if r.sics[q] >= 0.9*ref[q] {
				n++
			}
		}
		if 2*n >= len(qs) {
			return i + 1
		}
	}
	return len(rounds) + 1
}

// planCQL plans a statement the way both runtimes do. The statements are
// the benchmark's own and were already accepted by the program, so a
// failure here is a bug.
func planCQL(text string, d sources.Dataset, frags int) *query.Plan {
	st, err := cql.Parse(text)
	if err != nil {
		panic(err)
	}
	p, err := cql.PlanDistributed(st, cql.DefaultCatalog(d), frags)
	if err != nil {
		panic(err)
	}
	return p
}
