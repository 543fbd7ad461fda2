package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool recycles batches and their backing storage so the steady-state
// data path never touches the allocator. THEMIS's shedding loop runs
// every 250 ms on every node over every hosted query (§6); without
// allocation discipline each tick churns fresh batches, tuple slices and
// payload arrays that immediately become garbage. The pool replaces that
// churn with size-classed free lists: sources, operator emissions and the
// wire decoder draw batches from a pool, and whoever consumes a batch
// releases it back once nothing aliases its storage any more.
//
// Ownership rules (see DESIGN.md §9 for the full memory model):
//
//   - A pooled batch owns its Tuples slice and the payload slab its
//     tuples' V slices alias. Release returns all three to the pool.
//   - Exactly one owner releases a batch, after the last use. Aliasing a
//     batch's tuples or payloads is legal only until the owning driver
//     releases it (in practice: until the end of the node tick that
//     consumed it); anything retained longer must be copied first.
//   - View batches (GetView) alias another batch's tuples; releasing a
//     view returns only the header. The viewed parent must be released
//     after all its views.
//   - Retained views (ViewRetained) relax that ordering: they hold a
//     reference on the parent, whose storage recycles only when the owner
//     AND every retained view have released. This is what lets one shared
//     fragment's output batch fan out to many subscribing queries whose
//     hosting fragments release independently, on different goroutines.
//
// A Pool is safe for concurrent use; batches themselves are not.
// Double releases panic unconditionally — recycling a batch twice would
// silently cross-wire two queries' payloads, which is strictly worse
// than crashing. Live() exposes the outstanding-batch count so tests can
// assert leak-freedom.
//
// Shards (NewShard) split one logical pool into per-owner free lists so
// concurrent owners — the engine's nodes ticking on parallel workers —
// do not serialise on one mutex. A batch always recycles into the shard
// it was drawn from, whichever goroutine releases it; the parent's Live
// counts every shard's outstanding batches too.
type Pool struct {
	mu      sync.Mutex
	headers []*Batch
	tuples  [numClasses][][]Tuple
	slabs   [numClasses][][]float64
	live    atomic.Int64
	// shards lists the child pools NewShard created. Copy-on-write
	// under mu, read lock-free by Live, so Live never nests pool locks.
	shards atomic.Pointer[[]*Pool]
}

// classSizes are the free-list capacity classes, shared by tuple slices
// (tuples per batch) and payload slabs (floats per batch). Requests are
// rounded up to the next class; oversize requests are served by plain
// allocation and dropped on release.
var classSizes = [...]int{16, 64, 256, 1024, 4096, 16384, 65536}

const numClasses = len(classSizes)

// classOf returns the class index serving a request of size n, or -1 when
// n exceeds the largest class.
func classOf(n int) int {
	for c, size := range classSizes {
		if n <= size {
			return c
		}
	}
	return -1
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewShard returns a child pool with free lists and a lock of its own.
// Batches drawn from the shard recycle into it; its outstanding batches
// count toward the parent's Live for as long as the parent exists.
func (p *Pool) NewShard() *Pool {
	s := &Pool{}
	p.mu.Lock()
	var shards []*Pool
	if old := p.shards.Load(); old != nil {
		shards = append(shards, *old...)
	}
	shards = append(shards, s)
	p.shards.Store(&shards)
	p.mu.Unlock()
	return s
}

// Trim drops the pool's free lists, handing their storage to the garbage
// collector; outstanding batches still recycle here when released. A
// pool keeps storage sized for its busiest moment, so owners trim a
// shard whose owner goes idle (a node left hosting nothing) rather than
// pin that storage for the rest of the run.
func (p *Pool) Trim() {
	p.mu.Lock()
	p.headers = nil
	p.tuples = [numClasses][][]Tuple{}
	p.slabs = [numClasses][][]float64{}
	p.mu.Unlock()
}

// Live reports the number of batches drawn from the pool and its shards
// and not yet released — the leak detector tests assert against. The sum
// is exact whenever no batch is being drawn or released concurrently.
func (p *Pool) Live() int64 {
	n := p.live.Load()
	if shards := p.shards.Load(); shards != nil {
		for _, s := range *shards {
			n += s.Live()
		}
	}
	return n
}

// Get returns a batch of n tuples with arity payload fields each, drawn
// from the free lists when possible. Tuples are zeroed and their V slices
// re-pointed into a zeroed payload slab, so a recycled batch can never
// leak another query's payload values. The caller owns the batch and must
// Release it exactly once.
func (p *Pool) Get(query QueryID, frag FragID, src SourceID, ts Time, n, arity int) *Batch {
	b, tuples, slab := p.take(n, n*arity)
	if tuples == nil {
		tuples = make([]Tuple, n, classCap(n))
	}
	tuples = tuples[:n]
	if arity > 0 && slab == nil {
		slab = make([]float64, n*arity, classCap(n*arity))
	}
	if arity > 0 {
		slab = slab[:n*arity]
		for i := range slab {
			slab[i] = 0
		}
	} else {
		slab = nil
	}
	for i := range tuples {
		tuples[i].TS = 0
		tuples[i].SIC = 0
		if arity > 0 {
			tuples[i].V = slab[i*arity : (i+1)*arity : (i+1)*arity]
		} else {
			tuples[i].V = nil
		}
	}
	b.Query, b.Frag, b.Port, b.Source, b.TS, b.SIC = query, frag, 0, src, ts, 0
	b.Tuples, b.slab = tuples, slab
	b.pool, b.view, b.released, b.parent = p, false, false, nil
	b.refs.Store(1)
	p.live.Add(1)
	return b
}

// GetView returns a header-only batch whose Tuples alias the given
// storage — the shape batch splitting needs (sub-batches share the parent
// payload). Releasing a view recycles only the header; the owner of the
// aliased storage must outlive every view.
func (p *Pool) GetView(query QueryID, frag FragID, src SourceID, ts Time, tuples []Tuple) *Batch {
	b, _, _ := p.take(-1, -1)
	b.Query, b.Frag, b.Port, b.Source, b.TS, b.SIC = query, frag, 0, src, ts, 0
	b.Tuples, b.slab = tuples, nil
	b.pool, b.view, b.released, b.parent = p, true, false, nil
	b.refs.Store(1)
	p.live.Add(1)
	return b
}

// ViewRetained returns a view like GetView that additionally holds a
// reference on parent: parent's storage recycles only after the owner and
// every retained view have released, in any order, from any goroutine.
// This is the fan-out primitive for multi-query sharing — one shared
// fragment's output batch is viewed once per subscribing query, each view
// addressed to that subscriber's downstream fragment, and each consumer
// releases on its own schedule. A nil or unpooled parent degrades to a
// plain view (nothing to retain: unpooled storage is garbage-collected).
func (p *Pool) ViewRetained(parent *Batch, query QueryID, frag FragID, src SourceID, ts Time, tuples []Tuple) *Batch {
	b := p.GetView(query, frag, src, ts, tuples)
	if parent != nil && parent.pool != nil {
		parent.refs.Add(1)
		b.parent = parent
	}
	return b
}

// classCap rounds a capacity request up to its class size, so released
// slices always land back in a class list.
func classCap(n int) int {
	if c := classOf(n); c >= 0 {
		return classSizes[c]
	}
	return n
}

// take pops a header plus (for non-negative sizes) a tuple slice and
// payload slab from the free lists under one lock acquisition.
func (p *Pool) take(nTuples, nVals int) (b *Batch, tuples []Tuple, slab []float64) {
	p.mu.Lock()
	if k := len(p.headers); k > 0 {
		b = p.headers[k-1]
		p.headers[k-1] = nil
		p.headers = p.headers[:k-1]
	}
	if nTuples >= 0 {
		if c := classOf(nTuples); c >= 0 {
			if k := len(p.tuples[c]); k > 0 {
				tuples = p.tuples[c][k-1]
				p.tuples[c][k-1] = nil
				p.tuples[c] = p.tuples[c][:k-1]
			}
		}
	}
	if nVals > 0 {
		if c := classOf(nVals); c >= 0 {
			if k := len(p.slabs[c]); k > 0 {
				slab = p.slabs[c][k-1]
				p.slabs[c][k-1] = nil
				p.slabs[c] = p.slabs[c][:k-1]
			}
		}
	}
	p.mu.Unlock()
	if b == nil {
		b = &Batch{}
	}
	return b, tuples, slab
}

// Release drops the owner's reference on a pooled batch. It is a no-op
// for plainly-allocated batches (NewBatch/DerivedBatch), so callers
// release uniformly without caring where a batch came from. Storage
// returns to the pool when the last reference — owner or retained view —
// drops; a batch with no retained views recycles immediately, exactly as
// before views existed. Releasing the same handle twice panics: the
// second release would hand storage that is already aliased by a new
// owner to yet another one.
func (b *Batch) Release() {
	if b.pool == nil {
		return
	}
	if b.released {
		panic(fmt.Sprintf("stream: double release of batch (query %d frag %d ts %d)", b.Query, b.Frag, b.TS))
	}
	b.released = true
	b.decref()
}

// decref drops one reference and recycles at zero. The atomic decrement
// orders the releasing goroutine's prior writes before the recycling
// goroutine's reads, so whichever goroutine drops the count to zero owns
// the batch exclusively.
func (b *Batch) decref() {
	if b.refs.Add(-1) > 0 {
		return
	}
	b.recycle()
}

// recycle returns the batch's storage to its pool and drops the reference
// it held on its parent, if any. Called exactly once per pool draw, by
// the goroutine whose release dropped the count to zero.
func (b *Batch) recycle() {
	p := b.pool
	parent := b.parent
	b.parent = nil
	tuples, slab, view := b.Tuples, b.slab, b.view
	b.Tuples, b.slab = nil, nil
	p.mu.Lock()
	p.headers = append(p.headers, b)
	if !view {
		if tuples != nil {
			if c := classOf(cap(tuples)); c >= 0 && cap(tuples) == classSizes[c] {
				full := tuples[:cap(tuples)]
				for i := range full {
					full[i].V = nil // drop payload refs so slabs are not pinned
				}
				p.tuples[c] = append(p.tuples[c], tuples[:0])
			}
		}
		if slab != nil {
			if c := classOf(cap(slab)); c >= 0 && cap(slab) == classSizes[c] {
				p.slabs[c] = append(p.slabs[c], slab[:0])
			}
		}
	}
	p.mu.Unlock()
	p.live.Add(-1)
	if parent != nil {
		parent.decref()
	}
}

// Pooled reports whether the batch came from a pool — test helper for
// ownership assertions.
func (b *Batch) Pooled() bool { return b.pool != nil }
