package cql

import (
	"strconv"
	"sync"

	"repro/internal/query"
)

// PlanCache memoises PlanDistributed output across query submissions.
//
// A production federation sees thousands of structurally similar
// statements — the same aggregate over the same stream, resubmitted per
// dashboard or per tenant. Planning is pure: the same statement shape
// against the same catalog with the same fragment count always yields the
// same Plan, and a Plan is a read-only template (OpSpec.New constructs
// fresh operator state per deployment), so one cached *query.Plan is safe
// to deploy under any number of query IDs concurrently.
//
// The cache is two-level. The text level maps the exact submitted source
// text to its plan and shape key, so a repeated submission skips lexing
// and parsing entirely — that is where the bulk of a warm submit's
// speedup comes from. The shape level maps the canonical Shape rendering
// to the plan, so differently-written but structurally equal statements
// ("select AVG(t.v) from src" vs "Select Avg(t.v) From Src [Range 1 sec]")
// still share one plan after a single parse.
//
// Plans embed catalog-derived facts (source counts, schemas, generators),
// so cache keys include a caller-supplied catalog key (e.g. the dataset
// name) and the fragment count. Plans name no hosts, so membership
// changes never invalidate them.
type PlanCache struct {
	mu      sync.Mutex
	byText  map[string]planEntry
	byShape map[string]*query.Plan
	hits    uint64
	misses  uint64
}

// planEntry is a text-level hit: the plan plus the statement's composed
// shape key (catKey|fragments|shape).
type planEntry struct {
	plan  *query.Plan
	shape string
}

// PlanCacheStats counts cache outcomes. A hit is any submission that
// avoided re-planning (text-level or shape-level); a miss ran the full
// parse+plan path.
type PlanCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		byText:  make(map[string]planEntry),
		byShape: make(map[string]*query.Plan),
	}
}

// PlanDistributed returns the plan for src against cat, reusing a cached
// plan when the exact text or the statement shape has been planned before
// under the same catKey and fragment count. The returned shape key
// (catKey|fragments|Shape) identifies structural query equality and is
// stable across submissions — the federation uses it to group queries for
// scan and fragment sharing.
func (c *PlanCache) PlanDistributed(src string, cat *Catalog, catKey string, fragments int) (*query.Plan, string, error) {
	prefix := catKey + "|" + strconv.Itoa(fragments) + "|"
	textKey := prefix + src

	c.mu.Lock()
	if e, ok := c.byText[textKey]; ok {
		c.hits++
		c.mu.Unlock()
		return e.plan, e.shape, nil
	}
	c.mu.Unlock()

	// Parse outside the lock: planning a cold statement must not stall
	// concurrent warm submissions.
	st, err := Parse(src)
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, "", err
	}
	shapeKey := prefix + st.Shape()

	c.mu.Lock()
	if p, ok := c.byShape[shapeKey]; ok {
		c.hits++
		c.byText[textKey] = planEntry{plan: p, shape: shapeKey}
		c.mu.Unlock()
		return p, shapeKey, nil
	}
	c.mu.Unlock()

	p, err := PlanDistributed(st, cat, fragments)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if err != nil {
		return nil, "", err
	}
	// A racing planner for the same shape may have beaten us; keep the
	// first plan so every subscriber of one shape shares one template.
	if prior, ok := c.byShape[shapeKey]; ok {
		p = prior
	} else {
		c.byShape[shapeKey] = p
	}
	c.byText[textKey] = planEntry{plan: p, shape: shapeKey}
	return p, shapeKey, nil
}

// Stats returns the cumulative hit/miss counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses}
}
