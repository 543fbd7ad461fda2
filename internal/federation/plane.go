package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/cql"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Plane is the deterministic control plane of a federation: every
// placement, sharing and recovery decision either runtime makes. The
// virtual-time Engine applies its decisions by calling its nodes; the
// TCP transport.Controller sends them as frames. Because both run this
// one copy, the engine's bit-exact sharing differentials also check the
// share mirror the controller trusts instead of asking its hosts.
//
// The plane has no lock: callers serialise access (the controller holds
// its mutex across every call).
type Plane struct {
	sharing  Sharing
	strategy string
	seed     int64

	// dead is the membership, indexed by node id. placer assigns
	// fragments over the live nodes; it is rebuilt (strategy and seed
	// kept, round-robin state restarted) on the first Place after a
	// membership change.
	dead   []bool
	placer *Placer

	// plans memoises planning across submissions; catalogs memoises
	// DefaultCatalog per dataset; subKeys memoises cql.SubtreeKeys per
	// shape key (shape determines plan structure, so the per-fragment
	// subtree keys are a pure function of it).
	plans    *cql.PlanCache
	catalogs map[sources.Dataset]*cql.Catalog
	subKeys  map[string][]string

	// epochs counts minted share epochs. Submissions starting cold at one
	// instant share subEpoch (minted for instant subAt); every recovery
	// event mints its own.
	epochs   int64
	subEpoch int64
	subAt    int64

	// groups mirrors every node's share index: node → share key →
	// members in attach order. members[0] executes the instance; the
	// rest ride it. A node promotes the next member when the executing
	// query departs, which the mirror replays in Drop.
	groups map[stream.NodeID]map[string][]stream.QueryID
	shares map[stream.QueryID]*queryShare
	order  []stream.QueryID // keys of shares, ascending
}

// queryShare is one query's sharing facts: per-fragment subtree keys and
// downstream wiring, and per fragment the share key it was deployed
// under ("" when its node died), its host, whether it rides an instance,
// and the last emit bit delivered for a riding fragment.
type queryShare struct {
	rate     float64
	subKeys  []string
	downs    []int
	keys     []string
	nodes    []stream.NodeID
	attached []bool
	emits    []bool
}

// Share is the plane's decision for one fragment deploy. A zero Share
// deploys privately. Otherwise the fragment either executes under Key —
// becoming the dedup target of later same-key deploys on its node — or,
// with Attach set, rides the node's live instance under Key: Emit says
// whether the instance fans a view out to the rider's own downstream
// fragment, and Scale converts the instance's SIC mass into the rider's
// Eq. (1) normalisation (zero means exact).
type Share struct {
	Key    string
	Attach bool
	Emit   bool
	Scale  float64
}

// EmitFlip is one subscription whose emit bit must change on its node.
type EmitFlip struct {
	Node  stream.NodeID
	Query stream.QueryID
	Frag  stream.FragID
	Emit  bool
}

// NewPlane builds an empty plane. strategy names the placement strategy
// ("round-robin" when empty, "uniform" or "zipf"); seed drives placement
// randomness and keyed source seeds.
func NewPlane(sharing Sharing, strategy string, seed int64) *Plane {
	return &Plane{
		sharing:  sharing,
		strategy: strategy,
		seed:     seed,
		plans:    cql.NewPlanCache(),
		catalogs: make(map[sources.Dataset]*cql.Catalog),
		subKeys:  make(map[string][]string),
		groups:   make(map[stream.NodeID]map[string][]stream.QueryID),
		shares:   make(map[stream.QueryID]*queryShare),
	}
}

// --- membership and placement ---

// AddNode joins a node and returns its id.
func (p *Plane) AddNode() stream.NodeID {
	p.dead = append(p.dead, false)
	p.placer = nil
	return stream.NodeID(len(p.dead) - 1)
}

// Alive reports whether nd is a live member.
func (p *Plane) Alive(nd stream.NodeID) bool {
	return int(nd) >= 0 && int(nd) < len(p.dead) && !p.dead[nd]
}

// Dead returns a copy of the membership's dead flags, for callers that
// act on it outside their lock.
func (p *Plane) Dead() []bool { return append([]bool(nil), p.dead...) }

// Kill marks nd dead and returns the recovery epoch its displaced
// fragments re-deploy under. The node's share groups die with it: every
// member's fragment there is displaced and re-keyed by Attach, so
// co-displaced same-shape fragments re-share where recovery lands them
// together and never attach to a warm instance elsewhere.
func (p *Plane) Kill(nd stream.NodeID) int64 {
	p.dead[nd] = true
	p.placer = nil
	for _, q := range p.order {
		qs := p.shares[q]
		for f, n := range qs.nodes {
			if n == nd {
				qs.keys[f] = ""
				qs.attached[f] = false
			}
		}
	}
	delete(p.groups, nd)
	p.epochs++
	return p.epochs
}

// Validate checks a placement: one live node per fragment, all distinct
// (fragments of one query land on distinct nodes, §3).
func (p *Plane) Validate(placement []stream.NodeID, fragments int) error {
	if len(placement) != fragments {
		return fmt.Errorf("federation: placement has %d entries for %d fragments", len(placement), fragments)
	}
	for i, nd := range placement {
		switch {
		case int(nd) < 0 || int(nd) >= len(p.dead):
			return fmt.Errorf("federation: placement names missing node %d (%d nodes)", nd, len(p.dead))
		case p.dead[nd]:
			return fmt.Errorf("federation: placement names dead node %d", nd)
		case slices.Contains(placement[:i], nd):
			return errors.New("federation: fragments of one query must be placed on distinct nodes")
		}
	}
	return nil
}

// Place assigns k fragments to distinct live nodes with the configured
// strategy.
func (p *Plane) Place(k int) ([]stream.NodeID, error) {
	var alive []stream.NodeID
	for ni, d := range p.dead {
		if !d {
			alive = append(alive, stream.NodeID(ni))
		}
	}
	if len(alive) == 0 {
		return nil, errors.New("federation: no live nodes to place on")
	}
	if p.placer == nil {
		pl, err := NewPlacer(p.strategy, len(alive), p.seed)
		if err != nil {
			return nil, err
		}
		p.placer = pl
	}
	ids, err := p.placer.Place(k)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		ids[i] = alive[id]
	}
	return ids, nil
}

// Recover re-places query q's fragments hosted on the dead node: it
// returns their indices, ascending, and writes each one's replacement
// host into placement. Targets are the live nodes not already hosting
// the query, chosen with the configured strategy seeded by seed+q —
// under round-robin, the lowest-numbered ones. An error (too few
// candidates) leaves placement untouched.
func (p *Plane) Recover(q stream.QueryID, placement []stream.NodeID, dead stream.NodeID) ([]int, error) {
	var displaced []int
	for f, nd := range placement {
		if nd == dead {
			displaced = append(displaced, f)
		}
	}
	if len(displaced) == 0 {
		return nil, nil
	}
	var candidates []stream.NodeID
	for ni, d := range p.dead {
		if nd := stream.NodeID(ni); !d && !slices.Contains(placement, nd) {
			candidates = append(candidates, nd)
		}
	}
	if len(candidates) < len(displaced) {
		return nil, fmt.Errorf("federation: query %d: %d fragments displaced, %d candidate survivors",
			q, len(displaced), len(candidates))
	}
	pl, err := NewPlacer(p.strategy, len(candidates), p.seed+int64(q))
	if err != nil {
		return nil, err
	}
	picks, err := pl.Place(len(displaced))
	if err != nil {
		return nil, err
	}
	for i, f := range displaced {
		placement[f] = candidates[picks[i]]
	}
	return displaced, nil
}

// --- planning and keyed identities ---

// Plan plans a CQL statement against the dataset's default catalog
// through the plan cache, returning the plan and its shape key. Plans
// name no hosts, so membership changes never invalidate the cache.
func (p *Plane) Plan(text string, fragments, dataset int) (*query.Plan, string, error) {
	if fragments < 1 {
		fragments = 1
	}
	ds := sources.Dataset(dataset)
	cat, ok := p.catalogs[ds]
	if !ok {
		cat = cql.DefaultCatalog(ds)
		p.catalogs[ds] = cat
	}
	return p.plans.PlanDistributed(text, cat, ds.String(), fragments)
}

// PlanCacheStats reports the plan cache counters.
func (p *Plane) PlanCacheStats() cql.PlanCacheStats { return p.plans.Stats() }

// ident appends the fragment pin and, except under scaled sharing
// (whose instances span rates), the rate pin to a structural key.
func (p *Plane) ident(key string, rate float64, f int) string {
	key += "|f" + strconv.Itoa(f)
	if p.sharing != SharingScaled {
		key += "|r" + strconv.FormatFloat(rate, 'g', -1, 64)
	}
	return key
}

// CompatKey is the state-compatibility identity of fragment f of a
// query with the given shape and rate: under keyed seeds, fragments with
// equal compat keys observe the same logical stream, so one's checkpoint
// is a valid warm start for the other. Empty when sharing is off or the
// query has no shape.
func (p *Plane) CompatKey(shape string, rate float64, f int) string {
	if p.sharing == SharingOff || shape == "" {
		return ""
	}
	return p.ident(shape, rate, f)
}

// KeyedSeed is fragment f's source seed under keyed sharing: FNV-1a over
// the plane's seed and the fragment's compat key, so same-shape queries
// draw identical streams and a re-placed fragment stays on its stream.
// It reports false when sharing is off or the query has no shape; the
// runtime then draws seeds in submission order.
func (p *Plane) KeyedSeed(shape string, rate float64, f int) (int64, bool) {
	key := p.CompatKey(shape, rate, f)
	if key == "" {
		return 0, false
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.seed))
	h.Write(buf[:])
	h.Write([]byte(key))
	return int64(h.Sum64() >> 1), true
}

// AttachSources builds fragment fi's sources on host. Each source draws
// its generator seed, then its sampling seed, from rng; ids count up
// from first, and the next free id is returned. Generator indices are
// query-global, so a re-placed fragment rebuilds exactly the sources of
// the one it replaces.
func AttachSources(host *node.Node, q stream.QueryID, plan *query.Plan, fi int, rng *rand.Rand,
	first stream.SourceID, rate, batchesPerSec float64, burst *sources.BurstConfig) stream.SourceID {
	genIdx := plan.SourceIndexOffset(fi)
	for si, ss := range plan.Fragments[fi].Sources {
		gen := ss.NewGen(rand.New(rand.NewSource(rng.Int63())), genIdx+si)
		src := sources.New(first, q, stream.FragID(fi), ss.Port, rate, batchesPerSec, ss.Arity, gen, rng.Int63())
		src.Burst = burst
		first++
		host.AttachSource(src)
	}
	return first
}

// --- share mirror ---

// Register records query q's sharing facts and returns the share epoch
// its deploy runs under. Submissions share an epoch exactly when they
// start cold at the same instant at; a negative at mints a fresh epoch.
// A no-op returning 0 below SharingFull or for a query without shape.
func (p *Plane) Register(q stream.QueryID, shape string, rate float64, plan *query.Plan, at int64) int64 {
	if p.sharing < SharingFull || shape == "" {
		return 0
	}
	if at < 0 || at != p.subAt || p.subEpoch == 0 {
		p.epochs++
		p.subEpoch, p.subAt = p.epochs, at
	}
	sk, ok := p.subKeys[shape]
	if !ok {
		sk = cql.SubtreeKeys(plan, shape)
		p.subKeys[shape] = sk
	}
	n := plan.NumFragments()
	p.shares[q] = &queryShare{
		rate:     rate,
		subKeys:  sk,
		downs:    plan.Downstream,
		keys:     make([]string, n),
		nodes:    make([]stream.NodeID, n),
		attached: make([]bool, n),
		emits:    make([]bool, n),
	}
	p.order = append(p.order, q)
	return p.subEpoch
}

// Attach settles attach-vs-execute for fragment f of a registered query
// deploying on nd under epoch. Callers settle a query's fragments in
// ascending order, and Downstream[f] < f, so the downstream decision the
// emit bit depends on is already made. Unregistered queries get a zero
// Share.
func (p *Plane) Attach(q stream.QueryID, f int, nd stream.NodeID, epoch int64) Share {
	qs := p.shares[q]
	if qs == nil {
		return Share{}
	}
	key := p.ident(qs.subKeys[f], qs.rate, f) + "|e" + strconv.FormatInt(epoch, 10)
	qs.keys[f], qs.nodes[f] = key, nd
	idx := p.groups[nd]
	if idx == nil {
		idx = make(map[string][]stream.QueryID)
		p.groups[nd] = idx
	}
	members := idx[key]
	idx[key] = append(members, q)
	if len(members) == 0 {
		qs.attached[f], qs.emits[f] = false, true
		return Share{Key: key}
	}
	d := qs.downs[f]
	sh := Share{Key: key, Attach: true, Emit: d < 0 || !qs.attached[d]}
	qs.attached[f], qs.emits[f] = true, sh.Emit
	// Eq. (1) stamps are fractions of the stamping query's ideal window
	// content (rate × |S| × T): a rider declaring twice the executing
	// query's rate receives half of its own ideal content.
	if p.sharing == SharingScaled && qs.rate > 0 {
		if pr := p.shares[members[0]].rate; pr > 0 {
			sh.Scale = pr / qs.rate
		}
	}
	return sh
}

// Drop removes a departing query from every share group it belongs to,
// as its nodes do: a rider just detaches, the executing member hands the
// instance to the next member in attach order, and an emptied group
// disappears with its instance.
func (p *Plane) Drop(q stream.QueryID) {
	qs := p.shares[q]
	if qs == nil {
		return
	}
	for f, key := range qs.keys {
		if key == "" {
			continue
		}
		idx := p.groups[qs.nodes[f]]
		members := idx[key]
		i := slices.Index(members, q)
		if i < 0 {
			continue
		}
		members = slices.Delete(members, i, i+1)
		switch {
		case len(members) == 0:
			delete(idx, key)
			continue
		case i == 0:
			p.shares[members[0]].attached[f] = false
		}
		idx[key] = members
	}
	delete(p.shares, q)
	if i, ok := slices.BinarySearch(p.order, q); ok {
		p.order = slices.Delete(p.order, i, i+1)
	}
}

// MirrorSize counts the share mirror's groups and registered queries.
func (p *Plane) MirrorSize() (groups, queries int) {
	for _, idx := range p.groups {
		groups += len(idx)
	}
	return groups, len(p.shares)
}

// Sweep re-derives every riding fragment's emit bit — emit iff the
// query's downstream fragment executes — and returns the bits that
// changed, in query-id order. Retract and recovery run it after changing
// the mirror: a promoted query's upstream riders must start feeding the
// instance it now executes, and a rider whose downstream was re-placed
// privately must start feeding it.
func (p *Plane) Sweep() []EmitFlip {
	var flips []EmitFlip
	for _, q := range p.order {
		qs := p.shares[q]
		for f, att := range qs.attached {
			if !att {
				continue
			}
			d := qs.downs[f]
			want := d < 0 || !qs.attached[d]
			if want != qs.emits[f] {
				qs.emits[f] = want
				flips = append(flips, EmitFlip{Node: qs.nodes[f], Query: q, Frag: stream.FragID(f), Emit: want})
			}
		}
	}
	return flips
}
