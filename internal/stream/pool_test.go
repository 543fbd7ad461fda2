package stream

import (
	"math/rand"
	"sync"
	"testing"
)

// fillSentinel stamps recognisable values into every tuple of a batch.
func fillSentinel(b *Batch, base float64) {
	for i := range b.Tuples {
		b.Tuples[i].TS = Time(1000 + i)
		b.Tuples[i].SIC = base
		for j := range b.Tuples[i].V {
			b.Tuples[i].V[j] = base + float64(i*10+j)
		}
	}
	b.RecomputeSIC()
}

func TestPoolGetInitialisesBatches(t *testing.T) {
	p := NewPool()
	b := p.Get(7, 2, 3, 500, 10, 3)
	if b.Query != 7 || b.Frag != 2 || b.Source != 3 || b.TS != 500 || b.Port != 0 {
		t.Fatalf("header: %+v", b)
	}
	if b.Len() != 10 {
		t.Fatalf("len: %d", b.Len())
	}
	for i := range b.Tuples {
		tp := &b.Tuples[i]
		if tp.TS != 0 || tp.SIC != 0 || len(tp.V) != 3 {
			t.Fatalf("tuple %d not initialised: %+v", i, tp)
		}
		for j, v := range tp.V {
			if v != 0 {
				t.Fatalf("tuple %d V[%d] = %g, want 0", i, j, v)
			}
		}
	}
	if !b.Pooled() {
		t.Fatal("pooled batch not marked pooled")
	}
}

// TestPoolNoCrossQueryAliasingAfterRecycle is the payload-isolation
// property: a batch recycled from one query must hand the next owner
// fully zeroed tuples whose V slices never alias live storage of the
// previous owner's view of the data.
func TestPoolNoCrossQueryAliasingAfterRecycle(t *testing.T) {
	p := NewPool()
	a := p.Get(1, 0, 0, 0, 16, 2)
	fillSentinel(a, 100)
	// Retain a deep copy of what query 1 saw.
	saw := make([]float64, 0, 32)
	for i := range a.Tuples {
		saw = append(saw, a.Tuples[i].V...)
	}
	a.Release()

	b := p.Get(2, 0, 0, 0, 12, 2) // smaller batch, same class: recycled storage
	for i := range b.Tuples {
		if b.Tuples[i].TS != 0 || b.Tuples[i].SIC != 0 {
			t.Fatalf("recycled tuple %d leaks meta-data: %+v", i, b.Tuples[i])
		}
		for j, v := range b.Tuples[i].V {
			if v != 0 {
				t.Fatalf("recycled tuple %d V[%d] leaks %g from the previous query", i, j, v)
			}
		}
	}
	// Query 2 writing its payload must not change what query 1 copied out.
	fillSentinel(b, 200)
	for k, v := range saw {
		if v != 100+float64((k/2)*10+k%2) {
			t.Fatalf("query 1 copy mutated at %d: %g", k, v)
		}
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get(1, 0, 0, 0, 4, 1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestPlainBatchReleaseIsNoop(t *testing.T) {
	b := NewBatch(1, 0, 0, 0, 4, 1)
	b.Release()
	b.Release() // still a no-op: plain batches have no pool lifecycle
	if b.Pooled() {
		t.Fatal("plain batch claims to be pooled")
	}
}

func TestPoolViewReleaseKeepsParentStorage(t *testing.T) {
	p := NewPool()
	parent := p.Get(1, 0, 0, 0, 8, 1)
	fillSentinel(parent, 50)
	view := p.GetView(1, 0, 0, 0, parent.Tuples[2:6])
	view.RecomputeSIC()
	if view.Len() != 4 {
		t.Fatalf("view len %d", view.Len())
	}
	view.Release()
	// Parent storage must be untouched by the view release.
	for i := range parent.Tuples {
		if parent.Tuples[i].V[0] != 50+float64(i*10) {
			t.Fatalf("parent payload clobbered at %d", i)
		}
	}
	parent.Release()
	if p.Live() != 0 {
		t.Fatalf("live after full release: %d", p.Live())
	}
}

// TestPoolLiveAccountingProperty drives a random get/release schedule and
// checks the leak detector tracks outstanding batches exactly, recycled
// batches come back re-initialised, and nothing panics.
func TestPoolLiveAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool()
	var live []*Batch
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			n := 1 + rng.Intn(300)
			arity := rng.Intn(4)
			b := p.Get(QueryID(rng.Intn(8)), 0, SourceID(rng.Intn(4)), Time(step), n, arity)
			for i := range b.Tuples {
				if b.Tuples[i].SIC != 0 || len(b.Tuples[i].V) != arity {
					t.Fatalf("step %d: recycled batch not re-initialised", step)
				}
			}
			fillSentinel(b, float64(step))
			live = append(live, b)
		} else {
			i := rng.Intn(len(live))
			live[i].Release()
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if got := p.Live(); got != int64(len(live)) {
			t.Fatalf("step %d: live %d, want %d", step, got, len(live))
		}
	}
	for _, b := range live {
		b.Release()
	}
	if p.Live() != 0 {
		t.Fatalf("leak: %d batches outstanding", p.Live())
	}
}

// TestPoolConcurrentGetRelease hammers one pool from many goroutines —
// any worker may release a batch into the shard of the node that drew
// it — and relies on -race to catch unsynchronised free-list access.
func TestPoolConcurrentGetRelease(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				b := p.Get(QueryID(seed), 0, 0, Time(k), 1+rng.Intn(64), 1+rng.Intn(3))
				fillSentinel(b, float64(k))
				b.Release()
			}
		}(int64(g))
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Fatalf("live after concurrent churn: %d", p.Live())
	}
}

// TestPoolRetainedViewKeepsParentAlive releases owner and views in every
// order and checks the parent's storage survives until the last reference
// drops, then recycles exactly once.
func TestPoolRetainedViewKeepsParentAlive(t *testing.T) {
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}}
	for _, order := range orders {
		p := NewPool()
		parent := p.Get(1, 0, 0, 0, 8, 1)
		fillSentinel(parent, 50)
		v1 := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples[:4])
		v2 := p.ViewRetained(parent, 3, 0, 0, 0, parent.Tuples[4:])
		handles := []*Batch{parent, v1, v2}
		for k, idx := range order {
			// Before the last release the parent payload must be intact.
			for i := range parent.Tuples {
				if parent.Tuples[i].V[0] != 50+float64(i*10) {
					t.Fatalf("order %v: parent payload clobbered at %d before release %d", order, i, k)
				}
			}
			handles[idx].Release()
		}
		if p.Live() != 0 {
			t.Fatalf("order %v: live %d after all releases", order, p.Live())
		}
		// The recycled storage must be reusable and zeroed.
		b := p.Get(9, 0, 0, 0, 8, 1)
		for i := range b.Tuples {
			if b.Tuples[i].V[0] != 0 {
				t.Fatalf("order %v: recycled payload leaks %g", order, b.Tuples[i].V[0])
			}
		}
		b.Release()
	}
}

// TestPoolRetainedViewChains checks a retained view of a retained view
// keeps the whole chain alive.
func TestPoolRetainedViewChains(t *testing.T) {
	p := NewPool()
	root := p.Get(1, 0, 0, 0, 8, 1)
	fillSentinel(root, 10)
	mid := p.ViewRetained(root, 2, 0, 0, 0, root.Tuples[:6])
	leaf := p.ViewRetained(mid, 3, 0, 0, 0, mid.Tuples[:3])
	root.Release()
	mid.Release()
	// root's handle fields are cleared only at recycle time, so a nil
	// Tuples here would mean the chain failed to keep root alive.
	if root.Tuples == nil {
		t.Fatal("root recycled while a transitive view is live")
	}
	if leaf.Tuples[0].V[0] != 10 {
		t.Fatal("leaf lost payload while retained")
	}
	leaf.Release()
	if p.Live() != 0 {
		t.Fatalf("live after chain release: %d", p.Live())
	}
}

// TestPoolRetainedViewDoubleReleaseStillPanics keeps the per-handle
// double-release guard with refcounts in play.
func TestPoolRetainedViewDoubleReleaseStillPanics(t *testing.T) {
	p := NewPool()
	parent := p.Get(1, 0, 0, 0, 4, 1)
	v := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples)
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of retained view did not panic")
		}
		parent.Release()
		if p.Live() != 0 {
			t.Fatalf("live: %d", p.Live())
		}
	}()
	v.Release()
}

// TestPoolRetainedViewUnpooledParent: retaining a plainly-allocated batch
// degrades to a plain view — no refcount, no panic, GC owns the parent.
func TestPoolRetainedViewUnpooledParent(t *testing.T) {
	p := NewPool()
	parent := NewBatch(1, 0, 0, 0, 4, 1)
	v := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples)
	v.Release()
	parent.Release() // no-op
	if p.Live() != 0 {
		t.Fatalf("live: %d", p.Live())
	}
}

// TestPoolConcurrentRetainedViewRelease fans one parent out to many
// goroutines releasing concurrently — the engine's compute phase ticks
// subscriber fragments on different workers — and relies on -race plus
// the zero-live postcondition to prove the refcount chain is sound.
func TestPoolConcurrentRetainedViewRelease(t *testing.T) {
	p := NewPool()
	for round := 0; round < 200; round++ {
		parent := p.Get(1, 0, 0, 0, 64, 1)
		fillSentinel(parent, float64(round))
		const fan = 8
		views := make([]*Batch, fan)
		for i := range views {
			views[i] = p.ViewRetained(parent, QueryID(i), 0, 0, 0, parent.Tuples[i*8:(i+1)*8])
		}
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(v *Batch, want float64) {
				defer wg.Done()
				if v.Tuples[0].SIC != want {
					t.Errorf("view observed wrong payload generation")
				}
				v.Release()
			}(views[i], float64(round))
		}
		parent.Release()
		wg.Wait()
		if p.Live() != 0 {
			t.Fatalf("round %d: live %d", round, p.Live())
		}
	}
}

func TestPoolOversizeRequestsStillWork(t *testing.T) {
	p := NewPool()
	huge := classSizes[numClasses-1] + 1
	b := p.Get(1, 0, 0, 0, huge, 1)
	if b.Len() != huge {
		t.Fatalf("len %d", b.Len())
	}
	b.Release() // storage dropped (no class), header recycled, no panic
	if p.Live() != 0 {
		t.Fatalf("live: %d", p.Live())
	}
}

// TestPoolShardLiveSumsParentAndShards: a parent's Live counts its own
// outstanding batches plus every shard's, shards of shards included,
// and each shard's Live counts only its own.
func TestPoolShardLiveSumsParentAndShards(t *testing.T) {
	root := NewPool()
	a, b := root.NewShard(), root.NewShard()
	aa := a.NewShard()
	held := []*Batch{
		root.Get(1, 0, 0, 0, 4, 1),
		a.Get(2, 0, 0, 0, 4, 1),
		a.Get(3, 0, 0, 0, 4, 1),
		b.GetView(4, 0, 0, 0, nil),
		aa.Get(5, 0, 0, 0, 4, 1),
	}
	if got := root.Live(); got != 5 {
		t.Fatalf("root live %d, want 5", got)
	}
	if got := a.Live(); got != 3 {
		t.Fatalf("shard a live %d, want 3 (its own 2 plus its shard's 1)", got)
	}
	if got := b.Live(); got != 1 {
		t.Fatalf("shard b live %d, want 1", got)
	}
	for i, h := range held {
		h.Release()
		if got, want := root.Live(), int64(len(held)-i-1); got != want {
			t.Fatalf("after %d releases: root live %d, want %d", i+1, got, want)
		}
	}
}

// TestPoolShardCrossGoroutineRelease: batches drawn from shard A are
// released on another goroutine — which draws from shard B — while A
// keeps drawing, the engine's pattern when a batch crosses nodes. Each
// batch recycles into the shard it came from; -race checks the free
// lists stay synchronised.
func TestPoolShardCrossGoroutineRelease(t *testing.T) {
	root := NewPool()
	a, b := root.NewShard(), root.NewShard()
	handoff := make(chan *Batch, 16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(handoff)
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 2000; k++ {
			own := a.Get(1, 0, 0, Time(k), 1+rng.Intn(64), 1)
			fillSentinel(own, float64(k))
			sent := a.Get(2, 0, 0, Time(k), 1+rng.Intn(64), 2)
			fillSentinel(sent, float64(k))
			handoff <- sent
			own.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for sent := range handoff {
			own := b.Get(3, 0, 0, 0, 8, 1)
			if sent.Tuples[0].SIC != sent.Tuples[len(sent.Tuples)-1].SIC {
				t.Errorf("handed-off batch payload torn")
			}
			if sent.pool != a {
				t.Errorf("handed-off batch does not belong to its drawing shard")
			}
			sent.Release()
			own.Release()
		}
	}()
	wg.Wait()
	if root.Live() != 0 || a.Live() != 0 || b.Live() != 0 {
		t.Fatalf("live after churn: root %d, a %d, b %d", root.Live(), a.Live(), b.Live())
	}
}

// TestPoolShardRetainedViewAcrossShards: a retained view drawn from one
// shard holds its parent from another; releasing the view on the view
// shard's goroutine after the owner released the parent on its own
// recycles each into its own shard.
func TestPoolShardRetainedViewAcrossShards(t *testing.T) {
	root := NewPool()
	a, b := root.NewShard(), root.NewShard()
	for round := 0; round < 200; round++ {
		parent := a.Get(1, 0, 0, 0, 32, 1)
		fillSentinel(parent, float64(round))
		views := make(chan *Batch, 4)
		for i := 0; i < cap(views); i++ {
			views <- b.ViewRetained(parent, QueryID(i), 0, 0, 0, parent.Tuples[i*8:(i+1)*8])
		}
		close(views)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the owner's goroutine, drawing from a
			defer wg.Done()
			parent.Release()
			a.Get(9, 0, 0, 0, 32, 1).Release()
		}()
		go func(want float64) { // the subscriber's goroutine, drawing from b
			defer wg.Done()
			for v := range views {
				if v.Tuples[0].SIC != want {
					t.Errorf("round %d: view observed wrong payload generation", round)
				}
				v.Release()
				b.Get(9, 0, 0, 0, 8, 1).Release()
			}
		}(float64(round))
		wg.Wait()
		if root.Live() != 0 || a.Live() != 0 || b.Live() != 0 {
			t.Fatalf("round %d: live root %d, a %d, b %d", round, root.Live(), a.Live(), b.Live())
		}
	}
}

// TestPoolTrimDropsFreeStorage: Trim empties the free lists, leaves
// outstanding batches valid, and a batch released after the trim still
// recycles into the pool.
func TestPoolTrimDropsFreeStorage(t *testing.T) {
	p := NewPool()
	p.Get(1, 0, 0, 0, 8, 2).Release()
	held := p.Get(2, 0, 0, 0, 8, 2)
	fillSentinel(held, 3)
	p.Trim()
	if p.headers != nil {
		t.Fatal("header free list survives Trim")
	}
	for c := 0; c < numClasses; c++ {
		if p.tuples[c] != nil || p.slabs[c] != nil {
			t.Fatalf("class %d free lists survive Trim", c)
		}
	}
	if held.Tuples[7].V[1] != 3+71 || p.Live() != 1 {
		t.Fatalf("outstanding batch disturbed by Trim: payload %g, live %d", held.Tuples[7].V[1], p.Live())
	}
	held.Release()
	if p.Live() != 0 || len(p.headers) != 1 || len(p.tuples[0]) != 1 || len(p.slabs[0]) != 1 {
		t.Fatalf("release after Trim did not recycle: live %d, %d headers", p.Live(), len(p.headers))
	}
}
