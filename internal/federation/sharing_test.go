package federation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/node"
	"repro/internal/stream"
)

// Multi-query sharing tests: fragment dedup (SharingFull) must be a pure
// execution optimisation. Against the apples-to-apples baseline — keyed
// seeds with private pipelines (SharingKeyed) — an underloaded federation
// must produce bit-identical per-query results and SIC trajectories, for
// any worker count, through node-failure recovery and live query churn.
// Sharing also must not leak: shared instances, subscriptions, and pooled
// batches all return to baseline when the riding queries depart, in any
// retraction order (primary first exercises promotion).

// sharingShapes rotate three monitor statements so every share group has
// several members without every query being identical.
var sharingShapes = []string{
	"Select Avg(t.v) From Src[Range 1 sec]",
	"Select Count(t.v) From Src[Range 2 sec Slide 500 ms]",
	"Select Avg(t.v) From Src[Rows 50]",
}

// sharingRun executes the canonical differential deployment: 8 nodes with
// capacity far above load (no shedding — overload responses legitimately
// differ when sharing changes per-node arrival counts), 12 queries over
// three shapes (some 2-fragment, so dedup covers leaf fragments feeding a
// merge), a node kill+join at tick 24, and live churn that submits two
// more queries at tick 20 and retracts two — including a share-group
// primary — at tick 32.
func sharingRun(t *testing.T, mode Sharing, workers int) *Results {
	t.Helper()
	cfg := Defaults()
	cfg.Duration = 15 * stream.Second
	cfg.Warmup = 4 * stream.Second
	cfg.SourceRate = 20
	cfg.KeepSamples = true
	cfg.Workers = workers
	cfg.Seed = 42
	cfg.Sharing = mode
	cfg.Churn = []ChurnEvent{
		{Tick: 24, Join: 1, JoinCapacity: 1e8, Kill: []stream.NodeID{2}},
	}
	cfg.QueryChurn = []QueryChurnEvent{
		{Tick: 20, Submit: []QuerySubmit{
			{CQL: sharingShapes[0], Fragments: 2, Dataset: 1},
			{CQL: sharingShapes[1], Fragments: 1, Dataset: 1},
		}},
		{Tick: 32, Retract: []stream.QueryID{0, 5}},
	}
	e := NewEngine(cfg)
	e.AddNodes(8, 1e8)
	for i := 0; i < 12; i++ {
		cqlText := sharingShapes[i%len(sharingShapes)]
		frags := 1
		if i%3 == 0 {
			frags = 2 // distributed AVG: leaf fragments feed a merge root
		}
		if _, err := e.SubmitCQL(cqlText, frags, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < int64(cfg.Duration/cfg.Interval); i++ {
		e.Step()
		checkMirror(t, e)
	}
	if n := e.SkippedSubmits(); n != 0 {
		t.Fatalf("%d submissions skipped", n)
	}
	return e.Results()
}

// checkMirror requires the plane's share mirror to describe every live
// node exactly — the contract the transport controller relies on when it
// predicts host state instead of asking: each group's executing member
// hosts the instance, every other member rides it, each query's attach
// flags agree, and the per-node group and rider counts match the node's
// share index.
func checkMirror(t *testing.T, e *Engine) {
	t.Helper()
	riders := make(map[stream.NodeID]int)
	for _, q := range e.plane.order {
		qs := e.plane.shares[q]
		for fi, key := range qs.keys {
			nd, f := qs.nodes[fi], stream.FragID(fi)
			if key == "" || !e.NodeAlive(nd) {
				continue
			}
			n := e.Node(nd)
			i := slices.Index(e.plane.groups[nd][key], q)
			switch {
			case i < 0:
				t.Fatalf("tick %d node %d: query %d frag %d missing from group %q", e.tick, nd, q, f, key)
			case qs.attached[fi] != (i > 0):
				t.Fatalf("tick %d node %d: query %d frag %d is member %d but attached=%v", e.tick, nd, q, f, i, qs.attached[fi])
			case i == 0 && (!n.HostsFragment(q, f) || n.IsShareSub(q, f)):
				t.Fatalf("tick %d node %d: query %d frag %d should execute %q", e.tick, nd, q, f, key)
			case i > 0 && !n.IsShareSub(q, f):
				t.Fatalf("tick %d node %d: query %d frag %d should ride %q", e.tick, nd, q, f, key)
			case i > 0:
				riders[nd]++
			}
		}
	}
	for ni := range e.nodes {
		nd := stream.NodeID(ni)
		if !e.NodeAlive(nd) {
			continue
		}
		ss := e.Node(nd).StateSize()
		if groups := len(e.plane.groups[nd]); groups != ss.SharedInstances || riders[nd] != ss.Subscriptions {
			t.Fatalf("tick %d node %d: mirror holds %d groups, %d riders; node %d instances, %d subscriptions",
				e.tick, nd, groups, riders[nd], ss.SharedInstances, ss.Subscriptions)
		}
	}
}

// queryFacts projects the parts of Results that sharing must preserve
// exactly: every query's identity, mean SIC and full per-tick SIC series,
// the fairness metrics over them, and the coordinator traffic. Node-level
// arrival counters are excluded deliberately — processing fewer batches
// for the same results is the optimisation, not a divergence.
func queryFacts(r *Results) *Results {
	return &Results{
		Policy: r.Policy, Queries: r.Queries,
		MeanSIC: r.MeanSIC, Jain: r.Jain, StdSIC: r.StdSIC,
		CoordinatorMessages: r.CoordinatorMessages,
		CoordinatorBytes:    r.CoordinatorBytes,
	}
}

// TestSharingDifferentialBitIdentical is the acceptance test for the
// dedup layer: SharingFull equals SharingKeyed exactly, per query and per
// tick, across worker counts, through recovery and churn.
func TestSharingDifferentialBitIdentical(t *testing.T) {
	base := queryFacts(sharingRun(t, SharingKeyed, 1))
	if len(base.Queries) != 14 {
		t.Fatalf("deployment drifted: %d queries, want 14", len(base.Queries))
	}
	for _, workers := range []int{1, 4} {
		keyed := queryFacts(sharingRun(t, SharingKeyed, workers))
		full := queryFacts(sharingRun(t, SharingFull, workers))
		if !reflect.DeepEqual(keyed, full) {
			t.Errorf("workers=%d: SharingFull diverges from SharingKeyed:\n%+v\nvs\n%+v",
				workers, full, keyed)
		}
		if !reflect.DeepEqual(base, keyed) {
			t.Errorf("workers=%d: SharingKeyed diverges across worker counts", workers)
		}
	}
}

// TestSharingDedupActuallyShares guards against the trivial way to pass
// the differential test — never sharing anything. The Full deployment
// must report shared instances carrying subscriptions.
func TestSharingDedupActuallyShares(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 42
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	for i := 0; i < 8; i++ {
		if _, err := e.SubmitCQL(sharingShapes[0], 1, 1, 0, []stream.NodeID{stream.NodeID(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	instances, subs := 0, 0
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		instances += ss.SharedInstances
		subs += ss.Subscriptions
	}
	if instances != 4 || subs != 4 {
		t.Fatalf("8 same-shape queries on 4 nodes: %d instances, %d subscriptions; want 4 and 4", instances, subs)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	// Every rider still gets its own results: all SICs present and equal.
	for q := stream.QueryID(0); q < 8; q++ {
		if s := e.CurrentSIC(q); s <= 0 {
			t.Errorf("query %d has no result SIC under sharing", q)
		}
	}
}

// TestSharingNonLeafDedup checks dedup reaches interior fragments: for
// same-shape 2-fragment queries pinned to the same two nodes, the merge
// root deduplicates exactly like the leaf — one executing instance per
// level, every other query riding as a subscription — and every rider
// still receives results (the root instance fans result views out).
func TestSharingNonLeafDedup(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 42
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(2, 1e8)
	const n = 6
	for i := 0; i < n; i++ {
		// Fragment 0 (merge root) on node 0, fragment 1 (leaf) on node 1.
		if _, err := e.SubmitCQL(sharingShapes[0], 2, 1, 0, []stream.NodeID{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	instances, subs := 0, 0
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		instances += ss.SharedInstances
		subs += ss.Subscriptions
	}
	if instances != 2 || subs != 2*(n-1) {
		t.Fatalf("%d 2-fragment queries: %d instances, %d subscriptions; want 2 and %d (root and leaf each dedup)",
			n, instances, subs, 2*(n-1))
	}
	for i := 0; i < 30; i++ {
		e.Step()
	}
	for q := stream.QueryID(0); q < n; q++ {
		if s := e.CurrentSIC(q); s <= 0 {
			t.Errorf("query %d has no result SIC under non-leaf sharing", q)
		}
	}
}

// TestSharingScaledAcrossRates checks the rate-scaled mode: queries whose
// shapes differ only in rate collapse onto one instance (SharingFull
// keeps them apart via its rate pin), and each rider's SIC index lands at
// primaryRate/riderRate of its private value — the fan-out point converts
// the primary's mass into the rider's Eq. (1) normalisation, so a rider
// declaring twice the rate honestly reports receiving half of its ideal
// content, and a rider declaring half the rate reports double.
func TestSharingScaledAcrossRates(t *testing.T) {
	rates := []float64{20, 40, 10}
	run := func(mode Sharing) (*Engine, []stream.QueryID) {
		cfg := Defaults()
		cfg.SourceRate = 20
		cfg.Seed = 42
		cfg.Sharing = mode
		e := NewEngine(cfg)
		e.AddNodes(2, 1e8)
		var ids []stream.QueryID
		for _, r := range rates {
			q, err := e.SubmitCQL(sharingShapes[0], 1, 1, r, []stream.NodeID{0})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, q)
		}
		for i := 0; i < 40; i++ {
			e.Step()
		}
		return e, ids
	}
	scaled, ids := run(SharingScaled)
	ss := scaled.Node(0).StateSize()
	if ss.SharedInstances != 1 || ss.Subscriptions != len(rates)-1 {
		t.Fatalf("rate-scaled dedup: %+v, want 1 instance with %d subscriptions", ss, len(rates)-1)
	}
	full, _ := run(SharingFull)
	fss := full.Node(0).StateSize()
	if fss.SharedInstances != len(rates) || fss.Subscriptions != 0 {
		t.Fatalf("SharingFull must keep distinct rates apart: %+v", fss)
	}
	private, pids := run(SharingKeyed)
	for i, q := range ids {
		got, base := scaled.CurrentSIC(q), private.CurrentSIC(pids[i])
		if base <= 0 {
			t.Fatalf("baseline query %d has no SIC", i)
		}
		want := base * rates[0] / rates[i]
		if diff := got - want; diff > 0.15 || diff < -0.15 {
			t.Errorf("rate %.0f: scaled SIC %.3f, want %.3f (private %.3f × %g/%g)",
				rates[i], got, want, base, rates[0], rates[i])
		}
	}
}

// TestSharingTeardownNoLeaks churns queries on and off shared instances —
// retracting the primary first, so promotion runs — and requires the
// federation to return to its empty footprint: no fragments, no shared
// instances, no subscriptions, and every pooled batch released.
func TestSharingTeardownNoLeaks(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Workers = 4
	cfg.Seed = 9
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	var ids []stream.QueryID
	for i := 0; i < 9; i++ {
		q, err := e.SubmitCQL(sharingShapes[i%len(sharingShapes)], 1+i%2, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q)
	}
	for i := 0; i < 30; i++ {
		e.Step()
	}
	// Primary-first teardown: queries were submitted in order, so the
	// first member of each shape group owns the shared instances.
	for _, q := range ids {
		if !e.RemoveQuery(q) {
			t.Fatalf("query %d did not remove", q)
		}
		for i := 0; i < 3; i++ {
			e.Step() // drain in-flight transit batches between removals
		}
	}
	for i := 0; i < 40; i++ {
		e.Step() // outlast link latency and any straggling updates
	}
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		if ss.Fragments != 0 || ss.Sources != 0 || ss.SharedInstances != 0 || ss.Subscriptions != 0 {
			t.Errorf("node %d retains state after full teardown: %+v", ni, ss)
		}
	}
	if live := e.Pool().Live(); live != 0 {
		t.Errorf("%d pooled batches leaked after teardown", live)
	}
}

// TestSharingPromotionKeepsResults retracts a share-group primary mid-run
// and checks the surviving subscribers keep producing the same SIC
// trajectory as an identical deployment where the primary never existed
// at the window level — i.e. results keep flowing, uninterrupted.
func TestSharingPromotionKeepsResults(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 5
	cfg.Sharing = SharingFull
	cfg.KeepSamples = true
	e := NewEngine(cfg)
	e.AddNodes(2, 1e8)
	var ids []stream.QueryID
	for i := 0; i < 3; i++ {
		q, err := e.SubmitCQL(sharingShapes[0], 1, 1, 0, []stream.NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	before := e.CurrentSIC(ids[1])
	if before <= 0 {
		t.Fatal("subscriber has no SIC before promotion")
	}
	if !e.RemoveQuery(ids[0]) {
		t.Fatal("primary did not remove")
	}
	ss := e.Node(0).StateSize()
	if ss.SharedInstances != 1 || ss.Subscriptions != 1 {
		t.Fatalf("after primary retract: %+v, want 1 instance with 1 subscription", ss)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	after := e.CurrentSIC(ids[1])
	if after < 0.9*before {
		t.Errorf("subscriber SIC collapsed across promotion: %.3f -> %.3f", before, after)
	}
	if e.CurrentSIC(ids[2]) <= 0 {
		t.Error("second subscriber lost results after promotion")
	}
}

// teardownShapes are two-fragment time-window dashboards: each splits
// into a partial-aggregate leaf under a merging root, so both fragments
// dedup and a retract re-derives fan-out boundaries (SetSubEmit).
var teardownShapes = []string{
	"Select Avg(t.v) From Src [Range 2 sec Slide 250 ms]",
	"Select Count(t.v) From Src [Range 2 sec Slide 250 ms]",
}

// TestSharingFullRandomTeardown retracts every dashboard of a deployment
// whose shared instances carry several riders, in seeded random order,
// at one and two workers. Random order retracts primaries while two or
// more riders remain, so each promotion must re-point the other riders;
// afterwards the federation must be back at its empty footprint with
// every pooled batch released.
func TestSharingFullRandomTeardown(t *testing.T) {
	const nodes, queries = 6, 72
	for _, workers := range []int{1, 2} {
		cfg := Defaults()
		cfg.SourceRate = 40
		cfg.Workers = workers
		cfg.Seed = 13
		cfg.Sharing = SharingFull
		e := NewEngine(cfg)
		e.AddNodes(nodes, 1e8)
		ids := make([]stream.QueryID, 0, queries)
		for i := 0; i < queries; i++ {
			// Dashboards agreeing in shape and residue share instances:
			// 12 groups of 6.
			placement := []stream.NodeID{stream.NodeID(i % nodes), stream.NodeID((i + 1) % nodes)}
			q, err := e.SubmitCQL(teardownShapes[i%len(teardownShapes)], 2, 1, 0, placement)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, q)
		}
		for i := 0; i < 20; i++ {
			e.Step()
			checkMirror(t, e)
		}
		var inst, subs int
		for ni := 0; ni < e.NumNodes(); ni++ {
			ss := e.Node(stream.NodeID(ni)).StateSize()
			inst += ss.SharedInstances
			subs += ss.Subscriptions
		}
		if subs < 3*inst {
			t.Fatalf("workers=%d: %d subscriptions over %d shared instances, want at least 3 riders each", workers, subs, inst)
		}
		for k, idx := range rand.New(rand.NewSource(7)).Perm(len(ids)) {
			if !e.RemoveQuery(ids[idx]) {
				t.Fatalf("workers=%d: query %d did not remove", workers, ids[idx])
			}
			checkMirror(t, e)
			if k%4 == 3 {
				e.Step()
				checkMirror(t, e)
			}
		}
		for i := 0; i < 40; i++ {
			e.Step() // outlast link latency and any straggling updates
			checkMirror(t, e)
		}
		for ni := 0; ni < e.NumNodes(); ni++ {
			if ss := e.Node(stream.NodeID(ni)).StateSize(); ss != (node.StateSize{}) {
				t.Errorf("workers=%d: node %d retains state after full teardown: %+v", workers, ni, ss)
			}
		}
		if live := e.Pool().Live(); live != 0 {
			t.Errorf("workers=%d: %d pooled batches leaked after teardown", workers, live)
		}
	}
}

// TestSharingSameTickRecoveryBitIdentical submits a query in the tick a
// node dies, pinned to the node its checkpointed twin recovers onto.
// Recovery restores the twin warm; the new query starts cold, so it must
// not attach to the restored instance: recovery events and submissions
// never share an epoch, and Full stays bit-identical to Keyed.
func TestSharingSameTickRecoveryBitIdentical(t *testing.T) {
	const cqlText = "Select Avg(t.v) From Src[Range 1 sec]"
	run := func(mode Sharing) *Results {
		cfg := Defaults()
		cfg.Duration = 15 * stream.Second
		cfg.Warmup = 0
		cfg.SourceRate = 20
		cfg.KeepSamples = true
		cfg.Checkpoint = cfg.Interval
		cfg.Seed = 42
		cfg.Sharing = mode
		// Tick 26 is mid-window: the restored instance holds history.
		cfg.Churn = []ChurnEvent{{Tick: 26, Kill: []stream.NodeID{0}}}
		cfg.QueryChurn = []QueryChurnEvent{{Tick: 26, Submit: []QuerySubmit{
			{CQL: cqlText, Fragments: 1, Dataset: 1, Placement: []stream.NodeID{1}},
		}}}
		e := NewEngine(cfg)
		e.AddNodes(4, 1e8)
		if _, err := e.SubmitCQL(cqlText, 1, 1, 0, []stream.NodeID{0}); err != nil {
			t.Fatal(err)
		}
		res := e.Run()
		if n := e.SkippedSubmits(); n != 0 {
			t.Fatalf("%d submissions skipped", n)
		}
		if p := e.Placement(0); p[0] != 1 {
			t.Fatalf("recovered fragment landed on node %d, want 1", p[0])
		}
		return res
	}
	keyed, full := queryFacts(run(SharingKeyed)), queryFacts(run(SharingFull))
	if len(keyed.Queries) != 2 {
		t.Fatalf("deployment drifted: %d queries, want 2", len(keyed.Queries))
	}
	if !reflect.DeepEqual(keyed, full) {
		t.Errorf("SharingFull diverges from SharingKeyed:\nfull  %.3f %.3f\nkeyed %.3f %.3f",
			full.Queries[0].MeanSIC, full.Queries[1].MeanSIC, keyed.Queries[0].MeanSIC, keyed.Queries[1].MeanSIC)
	}
}
