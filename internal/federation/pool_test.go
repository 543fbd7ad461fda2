package federation

import (
	"testing"

	"repro/internal/stream"
)

// shardLive sums the outstanding batches of every node's pool shard.
func shardLive(e *Engine) int64 {
	var n int64
	for ni := 0; ni < e.NumNodes(); ni++ {
		n += e.Node(stream.NodeID(ni)).Pool().Live()
	}
	return n
}

// TestPoolShardsLiveAcrossKillAndJoin: every node draws from a shard of
// the engine's root pool, and the root's Live counts all of them — the
// killed node's shard included, since its batches in transit recycle
// into it after it died. A run with a kill, a join and a full teardown
// must end with nothing outstanding anywhere.
func TestPoolShardsLiveAcrossKillAndJoin(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 60
	cfg.Workers = 2
	cfg.Seed = 21
	e := NewEngine(cfg)
	e.AddNodes(4, 2e3) // overloaded: shedding and buffering run too
	for ni := 0; ni < e.NumNodes(); ni++ {
		if e.Node(stream.NodeID(ni)).Pool() == e.Pool() {
			t.Fatalf("node %d draws from the root pool, not a shard", ni)
		}
	}
	var ids []stream.QueryID
	for i := 0; i < 8; i++ {
		q, err := e.SubmitCQL(sharingShapes[i%len(sharingShapes)], 1+i%2, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q)
	}
	check := func(when string) {
		t.Helper()
		if root, shards := e.Pool().Live(), shardLive(e); root != shards {
			t.Fatalf("%s: root pool live %d, node shards sum to %d", when, root, shards)
		}
	}
	step := func(n int, when string) {
		for ; n > 0; n-- {
			e.Step()
			check(when)
		}
	}
	step(20, "warm-up")
	if e.Pool().Live() == 0 {
		t.Fatal("no batches outstanding mid-run: the check proves nothing")
	}
	e.KillNode(1)
	check("after kill")
	if e.Node(1).Pool().Live() == 0 {
		t.Fatal("no batch of the killed node in transit: the dead-shard case goes untested")
	}
	step(10, "after kill")
	joined := e.AddNode(2e3)
	q, err := e.SubmitCQL(sharingShapes[0], 2, 1, 0, []stream.NodeID{joined, 0})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, q)
	step(10, "after join")
	for _, q := range ids {
		e.RemoveQuery(q)
	}
	step(40, "teardown")
	if live := e.Pool().Live(); live != 0 {
		t.Fatalf("%d pooled batches leaked after teardown", live)
	}
	for ni := 0; ni < e.NumNodes(); ni++ {
		if live := e.Node(stream.NodeID(ni)).Pool().Live(); live != 0 {
			t.Errorf("node %d shard: %d batches outstanding", ni, live)
		}
	}
}
