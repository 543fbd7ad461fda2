package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sic"
	"repro/internal/stream"
)

// Controller plays the query-submission node and the per-query
// coordinators of a networked THEMIS federation: it deploys query
// fragments across node servers, starts them, ingests
// result/accepted reports, broadcasts result-SIC updates every interval,
// and summarises per-query SIC at the end. Derived batches never pass
// through the controller — hosts ship them to each other directly.
//
// Membership churn is the normal case, not a fatal one: a node that dies
// mid-run (connection error or missed heartbeat) has its fragments
// re-placed over the surviving membership, peers are rewired, and the
// affected queries' SIC accounting restarts at a recovery epoch. Only a
// failure that cannot be re-placed — too few survivors for the query's
// fragments — aborts the run.
//
// Every placement, sharing and recovery decision comes from a
// federation.Plane — the same code the virtual-time engine runs — and
// the controller sends it as frames. The plane's share mirror predicts
// host share state without a round trip: sends to one host are ordered,
// and its attach/promote decisions are deterministic in arrival order.
type Controller struct {
	mu     sync.Mutex
	nodes  []*conn
	addrs  []string
	plane  *federation.Plane
	coords map[stream.QueryID]*coordinator.Coordinator
	accs   map[stream.QueryID]*sic.Accumulator
	sums   map[stream.QueryID]*sampleStats
	hosts  map[stream.QueryID][]stream.NodeID // fragment → node index, per query
	deps   map[stream.QueryID]*deployRecord
	// qEpochs records each query's measurement epoch (deploy time): a
	// query submitted mid-run warms up on its own clock before its
	// samples count, so its mean is not diluted by an empty STW.
	qEpochs map[stream.QueryID]time.Time
	// finished holds the frozen post-epoch mean SIC of retracted
	// queries; they appear in the final results alongside live ones.
	finished map[stream.QueryID]float64
	epoch    time.Time
	stw      stream.Duration
	ival     stream.Duration
	ckpt     time.Duration
	// ckpts holds the newest checkpoint blob per fragment, replaced on
	// every KindCheckpoint frame and dropped on retract. Blobs are
	// opaque here — versioned and checksummed by the stream snapshot
	// codec, verified by the restoring node.
	ckpts map[peerKey][]byte
	nextQ stream.QueryID
	// seed is ControllerConfig.Seed; query q's sources draw from
	// seed+q+1+fragment when sharing is off.
	seed int64

	hbTimeout time.Duration
	norecover bool
	// lastSeen holds per-node atomic unix-nano receive timestamps;
	// entries are pointers so membership growth never moves them.
	lastSeen []*atomic.Int64
	// running flips while Run is active so AddNode can start read loops
	// for mid-run joiners.
	running    atomic.Bool
	wg         sync.WaitGroup
	recoveries []RecoveryEvent

	sicFn func(q stream.QueryID, now stream.Time, v float64)

	// ckptCompat banks the newest checkpoint blob per shape-compatibility
	// key (shape|frag|rate — the share identity without its epoch pin).
	// Shared subscribers carry no private state, so their displaced
	// fragments restore from a same-shape query's blob; keyed source
	// seeding is what makes that state exchangeable.
	ckptCompat map[string][]byte

	// stopping flips before the stop handshake; read-loop errors after
	// that are expected connection teardown, errors before it are node
	// failures surfaced from Run.
	stopping atomic.Bool
	fail     chan nodeFailure
	statsCh  chan struct{}
	stats    []StatsMsg
}

type sampleStats struct {
	sum float64
	n   int
}

// deployRecord remembers everything needed to re-issue a query's deploy
// messages during failure recovery.
type deployRecord struct {
	base  Deploy // shared descriptor; per-fragment fields unset
	shape string // plan shape key, the root of keyed seeds and compat keys
}

// nodeFailure is one detected node death, reported to Run.
type nodeFailure struct {
	idx int
	err error
}

// RecoveryEvent records one survived node failure.
type RecoveryEvent struct {
	// Node is the address of the failed node.
	Node string
	// At is the run offset at which the failure was detected.
	At time.Duration
	// Queries lists the queries whose fragments were re-placed.
	Queries []stream.QueryID
	// Took measures detection → last recovery deploy on the wire.
	Took time.Duration
	// Restored reports whether every re-placed fragment was restored
	// from a banked checkpoint (warm recovery, SIC accounting carried
	// through) rather than restarted with an empty window.
	Restored bool
}

// ControllerConfig parameterises the controller.
type ControllerConfig struct {
	// STW and Interval mirror the node settings (defaults 10 s / 250 ms).
	STW      stream.Duration
	Interval stream.Duration
	// Seed drives placement randomness and source seeds: with sharing
	// off, fragment f of query q draws from Seed+q+1+f; keyed modes hash
	// it with the fragment's structural identity (federation.Plane).
	Seed int64
	// Placement selects the automatic site-assignment strategy used by
	// AutoPlace and by failure recovery when choosing replacement hosts:
	// "round-robin" (default), "uniform" or "zipf".
	Placement string
	// HeartbeatTimeout is how long a node may stay silent before it is
	// declared failed even though its connection looks healthy (e.g. a
	// partition with no FIN). Zero defaults to max(2 s, 8×Interval);
	// negative disables missed-heartbeat detection — connection errors
	// still detect failure.
	HeartbeatTimeout time.Duration
	// DisableRecovery restores the pre-churn behaviour: any node failure
	// aborts the run instead of re-placing the dead node's fragments.
	DisableRecovery bool
	// Sharing selects the multi-query sharing mode applied across the
	// networked federation, as federation.Config.Sharing does for the
	// engine: off (default — deploys are byte-for-byte the legacy ones),
	// keyed (same-shape submissions draw identical source streams,
	// enabling cross-query checkpoint compatibility), full (same-shape
	// fragments placed on the same host collapse onto one executing
	// instance with refcounted fan-out views), or scaled (full, plus
	// instances shared across rates with the SIC mass converted at the
	// fan-out point).
	Sharing federation.Sharing
	// Checkpoint is the operator-state checkpoint cadence: every
	// Checkpoint of wall clock each host snapshots its fragments and
	// ships the sealed blobs here; failure recovery then restores a
	// displaced fragment's newest blob on its replacement host instead
	// of refilling its windows over a full STW, and — when every
	// displaced fragment of a query has a blob — keeps the query's SIC
	// accounting running through the failure. Zero disables
	// checkpointing (the legacy recovery-epoch behaviour).
	Checkpoint time.Duration
}

// NewController connects to the given node addresses.
func NewController(cfg ControllerConfig, nodeAddrs []string) (*Controller, error) {
	if cfg.STW <= 0 {
		cfg.STW = 10 * stream.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * stream.Millisecond
	}
	hb := cfg.HeartbeatTimeout
	if hb == 0 {
		hb = 8 * time.Duration(cfg.Interval) * time.Millisecond
		if hb < 2*time.Second {
			hb = 2 * time.Second
		}
	}
	// Reject an unknown placement strategy up front, not at first use.
	if _, err := federation.NewPlacer(cfg.Placement, 1, 0); err != nil {
		return nil, err
	}
	c := &Controller{
		plane:      federation.NewPlane(cfg.Sharing, cfg.Placement, cfg.Seed),
		coords:     make(map[stream.QueryID]*coordinator.Coordinator),
		accs:       make(map[stream.QueryID]*sic.Accumulator),
		sums:       make(map[stream.QueryID]*sampleStats),
		hosts:      make(map[stream.QueryID][]stream.NodeID),
		deps:       make(map[stream.QueryID]*deployRecord),
		qEpochs:    make(map[stream.QueryID]time.Time),
		finished:   make(map[stream.QueryID]float64),
		stw:        cfg.STW,
		ival:       cfg.Interval,
		ckpt:       cfg.Checkpoint,
		ckpts:      make(map[peerKey][]byte),
		seed:       cfg.Seed,
		hbTimeout:  hb,
		norecover:  cfg.DisableRecovery,
		fail:       make(chan nodeFailure, 64),
		statsCh:    make(chan struct{}, 256),
		ckptCompat: make(map[string][]byte),
	}
	for _, addr := range nodeAddrs {
		cn, err := dial(addr, "controller", defaultWriteTimeout)
		if err != nil {
			c.CloseAll()
			return nil, err
		}
		c.nodes = append(c.nodes, cn)
		c.addrs = append(c.addrs, addr)
		c.plane.AddNode()
		c.lastSeen = append(c.lastSeen, &atomic.Int64{})
	}
	return c, nil
}

// AddNode dials a freshly started node server and joins it to the
// membership, returning its node index. Joined nodes become re-placement
// targets for failure recovery and enter the automatic placement pool
// for subsequent deploys. Joining is legal mid-run: the node is started
// and its reports are ingested immediately.
func (c *Controller) AddNode(addr string) (int, error) {
	cn, err := dial(addr, "controller", defaultWriteTimeout)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	idx := len(c.nodes)
	c.nodes = append(c.nodes, cn)
	c.addrs = append(c.addrs, addr)
	c.plane.AddNode()
	ls := &atomic.Int64{}
	ls.Store(time.Now().UnixNano())
	c.lastSeen = append(c.lastSeen, ls)
	// Read running under the same lock Run holds while it snapshots the
	// connection list and flips running: exactly one of Run and AddNode
	// starts this connection's read loop, never both and never neither.
	running := c.running.Load()
	if running {
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if running {
		cn.send(c.startMsg())
		go func() {
			defer c.wg.Done()
			c.readLoop(idx, cn)
		}()
	}
	return idx, nil
}

// NumNodes reports the number of connected node servers (dead ones
// included — indices are stable for the lifetime of the controller).
func (c *Controller) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// conns snapshots the current connection slice under the lock, so
// broadcast paths never race a mid-run join.
func (c *Controller) conns() []*conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*conn(nil), c.nodes...)
}

// CloseAll closes all node connections.
func (c *Controller) CloseAll() {
	for _, n := range c.conns() {
		n.Close()
	}
}

// abort ends a run after an unrecoverable failure: surviving nodes get a
// best-effort stop (so their processes wind down instead of ticking
// forever against dead peers), then every connection closes.
func (c *Controller) abort() {
	c.stopping.Store(true)
	for _, n := range c.conns() {
		n.send(&Envelope{Kind: KindStop})
	}
	c.CloseAll()
}

// Shutdown stops the federation without running: a best-effort stop to
// every node followed by connection teardown. CLI front-ends use it on
// error paths so background themis-node processes exit rather than
// leaking.
func (c *Controller) Shutdown() {
	c.abort()
}

// OnSIC registers a callback invoked once per query per broadcast
// interval with the coordinator's current result-SIC value. Register
// before Run; the callback runs on the controller's ticker goroutine.
func (c *Controller) OnSIC(fn func(q stream.QueryID, now stream.Time, v float64)) {
	c.sicFn = fn
}

// AutoPlace assigns the given number of fragments to distinct live node
// indices using the configured placement strategy; dead nodes never
// receive fragments.
func (c *Controller) AutoPlace(fragments int) ([]int, error) {
	c.mu.Lock()
	ids, err := c.plane.Place(fragments)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out, nil
}

// Submit makes a query a first-class runtime citizen: it plans the CQL
// statement, places its fragments (explicitly, or with the configured
// placement strategy over the live membership when placement is nil)
// and deploys it — legal both before Run and onto a running federation,
// where the new fragments start ticking without pausing any other
// query. The statement text travels on the wire and every host re-plans
// it deterministically; planning here rejects malformed statements
// before any node sees them. The query's measurement epoch starts now:
// its samples count toward its mean only after its own warmup, and its
// coordinator registers for result-SIC dissemination immediately.
func (c *Controller) Submit(cqlText string, fragments, dataset int, rate, batchesPerSec float64, placement []int) (stream.QueryID, error) {
	c.mu.Lock()
	plan, shape, err := c.plane.Plan(cqlText, fragments, dataset)
	if err == nil {
		err = plan.Validate()
	}
	var nodes []stream.NodeID
	if err == nil && placement == nil {
		nodes, err = c.plane.Place(plan.NumFragments())
	} else if err == nil {
		nodes = make([]stream.NodeID, len(placement))
		for i, ni := range placement {
			nodes[i] = stream.NodeID(ni)
		}
		err = c.plane.Validate(nodes, plan.NumFragments())
	}
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	q := c.nextQ
	c.nextQ++
	c.coords[q] = coordinator.New(q, coordinator.RootMeasured, c.stw, c.ival)
	c.accs[q] = sic.NewAccumulator(c.stw, c.ival)
	c.sums[q] = &sampleStats{}
	c.hosts[q] = append([]stream.NodeID(nil), nodes...)
	rec := &deployRecord{base: Deploy{
		CQL: cqlText, Fragments: plan.NumFragments(), Dataset: dataset, Rate: rate, Batches: batchesPerSec,
	}, shape: shape}
	c.deps[q] = rec
	c.qEpochs[q] = time.Now()
	// Pre-Run submissions start cold together and may share instances;
	// once nodes tick, every instance is warm, so each submission gets a
	// share epoch of its own.
	at := int64(0)
	if c.running.Load() {
		at = -1
	}
	epoch := c.plane.Register(q, shape, rate, plan, at)
	peers := c.peerMap(nodes)
	outs := make([]Deploy, len(nodes))
	for f, nd := range nodes {
		outs[f] = c.fragDeploy(rec, q, f, peers, c.plane.Attach(q, f, nd, epoch))
	}
	conns := append([]*conn(nil), c.nodes...)
	c.mu.Unlock()

	for f, nd := range nodes {
		if err := conns[nd].send(&Envelope{Kind: KindDeploy, Deploy: &outs[f]}); err != nil {
			return 0, err
		}
	}
	return q, nil
}

// Retract tears a running query down mid-run: its hosts drop the
// fragments (and all per-query state) without pausing other queries,
// its coordinator deregisters from the dissemination loop, and every
// per-query controller record is freed. The query's mean SIC freezes at
// its current post-epoch value and still appears in the final results.
// Surviving queries' accounting is untouched — their SIC climbs as the
// freed capacity reaches them, which is the fairness dynamic under
// study, not pollution. Safe to call while failure recovery is in
// flight: whichever side loses the race observes the other's outcome
// and stands down.
func (c *Controller) Retract(q stream.QueryID) error {
	c.mu.Lock()
	placement, ok := c.hosts[q]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("transport: retract: unknown query %d", q)
	}
	mean := 0.0
	if st := c.sums[q]; st != nil && st.n > 0 {
		mean = st.sum / float64(st.n)
	}
	c.finished[q] = mean
	// Mirror the hosts' teardown before the retract frames go out: group
	// membership shifts (including promotion of the next subscriber to
	// executing) and the emit invariant is re-derived over what remains.
	c.plane.Drop(q)
	flips := c.plane.Sweep()
	delete(c.coords, q)
	delete(c.accs, q)
	delete(c.sums, q)
	delete(c.hosts, q)
	delete(c.deps, q)
	delete(c.qEpochs, q)
	for k := range c.ckpts {
		if k.q == q {
			delete(c.ckpts, k)
		}
	}
	conns := append([]*conn(nil), c.nodes...)
	dead := c.plane.Dead()
	c.mu.Unlock()
	// Network sends happen outside c.mu; errors are ignored — a host
	// that cannot be reached is dead or dying, and failure detection
	// owns that path.
	for _, nd := range placement {
		if !dead[nd] {
			conns[nd].send(&Envelope{Kind: KindRetract, Retract: &Retract{Query: q}})
		}
	}
	// Emit flips ship after the retracts: per-connection ordering then
	// guarantees a host sees the promotion (retract) before any flip that
	// depends on it, and flips to other hosts converge within a tick.
	c.sendEmitFlips(flips)
	return nil
}

// sendEmitFlips delivers the plane's emit-invariant sweep as share_emit
// frames; dead hosts are skipped — failure detection owns that path and
// recovery re-derives the bits.
func (c *Controller) sendEmitFlips(flips []federation.EmitFlip) {
	if len(flips) == 0 {
		return
	}
	c.mu.Lock()
	conns := append([]*conn(nil), c.nodes...)
	dead := c.plane.Dead()
	c.mu.Unlock()
	for _, fl := range flips {
		if !dead[fl.Node] {
			conns[fl.Node].send(&Envelope{Kind: KindShareEmit, ShareEmit: &ShareEmitMsg{
				Query: fl.Query, Frag: fl.Frag, Emit: fl.Emit,
			}})
		}
	}
}

// peerMap maps every fragment of a query to its host's address.
func (c *Controller) peerMap(placement []stream.NodeID) map[stream.FragID]string {
	peers := make(map[stream.FragID]string, len(placement))
	for f, nd := range placement {
		peers[stream.FragID(f)] = c.addrs[nd]
	}
	return peers
}

// fragDeploy specialises a query's deploy record for fragment f under
// the plane's share decision. Source seeds and ids are pure functions of
// (query, fragment) — or, under keyed sharing, of the fragment's
// structural identity — so a recovery re-deploy reconstructs the
// displaced fragment's sources exactly as the original deploy did.
// Callers hold c.mu.
func (c *Controller) fragDeploy(rec *deployRecord, q stream.QueryID, f int, peers map[stream.FragID]string, sh federation.Share) Deploy {
	d := rec.base
	d.Query, d.Frag, d.Peers = q, stream.FragID(f), peers
	d.SourceSeed = c.seed + int64(q) + 1 + int64(f)
	if seed, ok := c.plane.KeyedSeed(rec.shape, d.Rate, f); ok {
		d.SourceSeed = seed
	}
	d.FirstSourceID = stream.SourceID(int(q)*1000 + 100*f)
	d.STWMs, d.IntervalMs, d.CheckpointMs = int64(c.stw), int64(c.ival), c.ckptMs()
	d.ShareKey, d.ShareEmit, d.ShareScale = sh.Key, sh.Emit, sh.Scale
	return d
}

// startMsg is the Start frame a node (re-)joining the run receives.
func (c *Controller) startMsg() *Envelope {
	return &Envelope{Kind: KindStart, Start: &Start{
		IntervalMs: int64(c.ival), STWMs: int64(c.stw), CheckpointMs: c.ckptMs(),
		RunOffsetMs: c.runOffsetMs(),
	}}
}

// ckptMs is the checkpoint cadence in wall-clock milliseconds (zero when
// checkpointing is off). c.ckpt is immutable after construction.
func (c *Controller) ckptMs() int64 { return int64(c.ckpt / time.Millisecond) }

// runOffsetMs is the run clock carried on Start messages so mid-run
// joiners align their logical clocks with the founding members. Zero
// before Run begins.
func (c *Controller) runOffsetMs() int64 {
	if c.epoch.IsZero() {
		return 0
	}
	return time.Since(c.epoch).Milliseconds()
}

// Run starts all nodes, processes reports for the given wall-clock
// duration (samples are recorded after warmup), stops the nodes and
// returns the per-query mean SIC plus fairness metrics. A node failing
// mid-run — connection error or missed heartbeat — triggers recovery:
// its fragments are re-placed over the surviving membership, peers are
// rewired, and the affected queries' SIC sampling restarts at the
// recovery epoch, so their reported means describe the post-recovery
// pipeline. Only an unrecoverable failure (not enough survivors to host
// a query's fragments on distinct nodes) aborts the run.
func (c *Controller) Run(duration, warmup time.Duration) (*NetResults, error) {
	c.epoch = time.Now()
	startNanos := time.Now().UnixNano()
	c.mu.Lock()
	for _, ls := range c.lastSeen {
		ls.Store(startNanos)
	}
	conns := append([]*conn(nil), c.nodes...)
	// Flip running inside the same critical section that snapshots the
	// connections: a concurrent AddNode either lands in the snapshot
	// (running still false — Run starts its read loop) or observes
	// running true and starts it itself. Never both, never neither.
	c.running.Store(true)
	c.mu.Unlock()
	defer c.running.Store(false)
	for _, n := range conns {
		if err := n.send(c.startMsg()); err != nil {
			c.CloseAll()
			return nil, err
		}
	}

	for i, n := range conns {
		c.wg.Add(1)
		go func(i int, n *conn) {
			defer c.wg.Done()
			c.readLoop(i, n)
		}(i, n)
	}

	// Broadcast result-SIC updates every interval, sample after warmup.
	ticker := time.NewTicker(time.Duration(c.ival) * time.Millisecond)
	deadline := time.After(duration)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case f := <-c.fail:
			if err := c.handleFailure(f); err != nil {
				c.abort()
				c.wg.Wait()
				return nil, fmt.Errorf("transport: run aborted: %w", err)
			}
		case <-ticker.C:
			c.checkHeartbeats()
			now := c.now()
			type bcast struct {
				q     stream.QueryID
				v     float64
				hosts []stream.NodeID
			}
			var outs []bcast
			c.mu.Lock()
			for q, coord := range c.coords {
				v := coord.Value(now)
				// Recovery rewrites host slices in place, so copy them
				// for use outside the lock below.
				outs = append(outs, bcast{q, v, append([]stream.NodeID(nil), c.hosts[q]...)})
				coord.NoteUpdateSent(len(c.hosts[q]))
				// Per-query SIC epoch: samples count from the query's own
				// deploy time plus warmup, so a mid-run submission's mean
				// is not diluted while its sliding window fills. Queries
				// deployed before Run warm up from the run epoch.
				eff := c.qEpochs[q]
				if eff.Before(c.epoch) {
					eff = c.epoch
				}
				if time.Since(eff) > warmup {
					st := c.sums[q]
					st.sum += c.accs[q].Sum(now)
					st.n++
				}
			}
			conns := append([]*conn(nil), c.nodes...)
			dead := c.plane.Dead()
			c.mu.Unlock()
			// Network writes happen outside c.mu: a node with a full TCP
			// send buffer must not stall readLoop's report ingestion.
			// Every query's update to the same host is coalesced into one
			// vectored write — at 48 queries over 24 nodes this interval
			// costs one syscall per host, not one per (query, host) pair.
			perNode := make([][]*Envelope, len(conns))
			for _, b := range outs {
				for _, ni := range b.hosts {
					if dead[ni] {
						continue
					}
					perNode[ni] = append(perNode[ni], &Envelope{Kind: KindSIC, SIC: &SICMsg{Query: b.q, Value: b.v}})
				}
				if c.sicFn != nil {
					c.sicFn(b.q, now, b.v)
				}
			}
			for ni, es := range perNode {
				if len(es) == 0 {
					continue
				}
				if err := conns[ni].sendMany(es); err != nil {
					// A write deadline expiry or a broken conn is a failure
					// signal like any read error: surface it (non-blocking —
					// heartbeat detection is the backstop) so the node is
					// declared dead and its fragments re-placed instead of
					// silently starving of SIC updates.
					select {
					case c.fail <- nodeFailure{ni, err}:
					default:
					}
				}
			}
		}
	}

	// Failures that raced the deadline are still handled — all of them,
	// since several nodes can die within the final interval: recoverable
	// ones re-place fragments (the summary then reflects the recovery),
	// an unrecoverable one aborts rather than folding a dead node's
	// absence into a successful-looking summary.
drain:
	for {
		select {
		case f := <-c.fail:
			if err := c.handleFailure(f); err != nil {
				c.abort()
				c.wg.Wait()
				return nil, fmt.Errorf("transport: run aborted: %w", err)
			}
		default:
			break drain
		}
	}

	// Stop handshake: announce stop, then wait for every surviving
	// node's final stats frame (or a timeout) before tearing connections
	// down, so the summary deterministically includes all node counters.
	c.stopping.Store(true)
	c.mu.Lock()
	alive := 0
	for _, d := range c.plane.Dead() {
		if !d {
			alive++
		}
	}
	conns = append(conns[:0], c.nodes...)
	c.mu.Unlock()
	for _, n := range conns {
		n.send(&Envelope{Kind: KindStop})
	}
	stopDeadline := time.After(stopTimeout)
wait:
	for got := 0; got < alive; got++ {
		select {
		case <-c.statsCh:
		case <-stopDeadline:
			break wait
		}
	}
	c.CloseAll()
	c.wg.Wait()
	return c.results(), nil
}

// errMissedHeartbeat marks a node declared dead for silence rather than
// a connection error.
var errMissedHeartbeat = errors.New("missed heartbeats")

// checkHeartbeats declares nodes dead that have sent nothing for longer
// than the heartbeat timeout. Started nodes beacon every tick, so a
// healthy connection is never this quiet; a partitioned node's
// connection can look healthy indefinitely without this check.
func (c *Controller) checkHeartbeats() {
	if c.hbTimeout <= 0 {
		return
	}
	cutoff := time.Now().Add(-c.hbTimeout).UnixNano()
	c.mu.Lock()
	var late []nodeFailure
	for i := range c.nodes {
		if c.plane.Alive(stream.NodeID(i)) && c.lastSeen[i].Load() < cutoff {
			late = append(late, nodeFailure{i, errMissedHeartbeat})
		}
	}
	c.mu.Unlock()
	for _, f := range late {
		select {
		case c.fail <- f:
		default:
		}
	}
}

// handleFailure processes one detected node death. It returns nil when
// the membership absorbed the failure (fragments re-placed, peers
// rewired) and an error when the run cannot continue. Duplicate reports
// for an already-dead node are ignored — conn-error and heartbeat
// detection race benignly.
func (c *Controller) handleFailure(f nodeFailure) error {
	c.mu.Lock()
	dead := stream.NodeID(f.idx)
	if !c.plane.Alive(dead) {
		c.mu.Unlock()
		return nil
	}
	epoch := c.plane.Kill(dead)
	deadAddr := c.addrs[f.idx]
	cn := c.nodes[f.idx]
	var affected []stream.QueryID
	for q, placement := range c.hosts {
		if slices.Contains(placement, dead) {
			affected = append(affected, q)
		}
	}
	c.mu.Unlock()
	cn.Close() // sever, so a half-dead node stops feeding us reports
	if c.norecover {
		return fmt.Errorf("node %s: %w", deadAddr, f.err)
	}
	slices.Sort(affected)
	start := time.Now()
	restored := len(affected) > 0
	for _, q := range affected {
		warm, err := c.replaceFragments(q, dead, epoch)
		if err != nil {
			return fmt.Errorf("node %s: %v: %w", deadAddr, f.err, err)
		}
		restored = restored && warm
	}
	ev := RecoveryEvent{
		Node: deadAddr, At: time.Since(c.epoch), Queries: affected,
		Took: time.Since(start), Restored: restored,
	}
	c.mu.Lock()
	c.recoveries = append(c.recoveries, ev)
	// Re-placement may have turned riders into private executors (or new
	// primaries into attach targets); restore the emit invariant over the
	// surviving topology.
	flips := c.plane.Sweep()
	c.mu.Unlock()
	c.sendEmitFlips(flips)
	return nil
}

// replaceFragments re-places query q's fragments that were hosted on the
// dead node onto the hosts the plane picks (Plane.Recover), under the
// recovery epoch: each host re-plans the travelling CQL text
// deterministically, so the new host derives the exact fragment the dead
// one ran, and every surviving host is rewired to the new peer map.
// Unless every re-placed fragment restores from a banked checkpoint, the
// query's SIC accounting resets at this recovery epoch: accepted/result
// accumulators and the run's sample sums restart, so the reported mean
// describes the post-recovery pipeline instead of blending two
// incomparable regimes.
func (c *Controller) replaceFragments(q stream.QueryID, dead stream.NodeID, epoch int64) (restored bool, err error) {
	c.mu.Lock()
	placement := c.hosts[q]
	rec := c.deps[q]
	if rec == nil {
		// The query was retracted between failure detection and this
		// re-placement — nothing left to recover. Not an error: retract
		// racing recovery is a legal interleaving and whichever side
		// runs second stands down.
		c.mu.Unlock()
		return true, nil
	}
	displaced, err := c.plane.Recover(q, placement, dead)
	if err != nil {
		c.mu.Unlock()
		return false, err
	}
	placement = slices.Clone(placement)
	peers := c.peerMap(placement)
	// Each displaced fragment is settled against the share mirror on its
	// new host: co-displaced same-shape members that land together
	// re-share (the lowest-numbered query recovers first and becomes the
	// target), everyone else re-deploys privately. With checkpointing on
	// and a blob banked for every displaced fragment that executes,
	// recovery restores warm state: the blobs ship to the new hosts after
	// their deploys below, and the query's SIC accounting carries straight
	// through the failure. A fragment that attaches to a live instance
	// needs no blob — the instance is its state; one that never
	// checkpointed privately (a former rider) falls back to a
	// shape-compatible query's blob, which keyed source seeding makes
	// exchangeable. A node-side restore failure (stale or corrupt blob)
	// degrades that query's dip to roughly the legacy one.
	restoring := c.ckpt > 0
	outs := make([]Deploy, len(displaced))
	blobs := make([][]byte, len(displaced))
	for i, f := range displaced {
		sh := c.plane.Attach(q, f, placement[f], epoch)
		outs[i] = c.fragDeploy(rec, q, f, peers, sh)
		if sh.Attach || !restoring {
			continue
		}
		blob, ok := c.ckpts[peerKey{q, stream.FragID(f)}]
		if !ok {
			blob, ok = c.ckptCompat[c.plane.CompatKey(rec.shape, rec.base.Rate, f)]
		}
		restoring, blobs[i] = ok, blob
	}
	if !restoring {
		// Recovery epoch: wipe pre-failure SIC state so post-recovery
		// values are measured cleanly. Guarded lookups — a retract may
		// have won the race for individual records.
		if co, ok := c.coords[q]; ok {
			co.ResetEpoch()
		}
		if acc, ok := c.accs[q]; ok {
			acc.Reset()
		}
		if _, ok := c.sums[q]; ok {
			c.sums[q] = &sampleStats{}
		}
	}
	conns := append([]*conn(nil), c.nodes...)
	deadNodes := c.plane.Dead()
	c.mu.Unlock()

	// Re-deploy the displaced fragments and (re-)start their hosts — an
	// idle spare begins ticking here; handleStart is idempotent on nodes
	// already running.
	for i, f := range displaced {
		host := conns[placement[f]]
		if err := host.send(&Envelope{Kind: KindDeploy, Deploy: &outs[i]}); err != nil {
			return false, fmt.Errorf("transport: re-deploy fragment %d on %s: %w", f, peers[stream.FragID(f)], err)
		}
		host.send(c.startMsg())
		if restoring && blobs[i] != nil {
			// Per-connection sends are ordered, so the restore lands
			// after the deploy that builds its target executor.
			host.send(&Envelope{Kind: KindRestoreState, Restore: &RestoreStateMsg{
				Query: q, Frag: stream.FragID(f), State: blobs[i],
			}})
		}
	}
	// Rewire every surviving host of the query. The new hosts' deploys
	// already carried the updated peer map; the redundant rewire is
	// harmless and keeps the fan-out simple.
	for _, nd := range placement {
		if !deadNodes[nd] {
			conns[nd].send(&Envelope{Kind: KindRewire, Rewire: &Rewire{Query: q, Peers: peers}})
		}
	}
	// A retract that slipped in while the re-deploys were on the wire
	// would leave the fresh fragments as zombies on their new hosts:
	// per-connection sends are ordered, so a retract issued now is
	// guaranteed to land after the deploys above and undo them.
	c.mu.Lock()
	_, stillDeployed := c.deps[q]
	c.mu.Unlock()
	if !stillDeployed {
		for _, nd := range placement {
			if !deadNodes[nd] {
				conns[nd].send(&Envelope{Kind: KindRetract, Retract: &Retract{Query: q}})
			}
		}
	}
	return restoring, nil
}

// stopTimeout bounds the stop handshake's wait for node stats.
const stopTimeout = 5 * time.Second

func (c *Controller) now() stream.Time {
	return stream.Time(time.Since(c.epoch).Milliseconds())
}

// readLoop ingests reports from one node until its connection closes.
// Abnormal closes before the stop handshake are surfaced to Run as node
// failures; every received frame — heartbeats included — refreshes the
// node's liveness timestamp.
func (c *Controller) readLoop(idx int, n *conn) {
	fr := newFrameReader(n.c)
	c.mu.Lock()
	ls := c.lastSeen[idx]
	c.mu.Unlock()
	for {
		e, _, err := fr.next()
		if err != nil {
			if c.stopping.Load() {
				return // teardown at stop time is expected
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = fmt.Errorf("connection closed: %w", err)
			}
			select {
			case c.fail <- nodeFailure{idx, err}:
			default:
			}
			return
		}
		ls.Store(time.Now().UnixNano())
		if e == nil {
			continue // batches are never routed through the controller
		}
		switch e.Kind {
		case KindReport:
			r := e.Report
			if r == nil {
				continue // malformed control frame; drop, don't crash
			}
			now := c.now()
			c.mu.Lock()
			if coord, ok := c.coords[r.Query]; ok {
				if r.IsResult {
					coord.ReportResult(now, r.Result)
					c.accs[r.Query].Add(now, r.Result)
				} else {
					coord.ReportAccepted(now, r.Accepted)
				}
			}
			c.mu.Unlock()
		case KindCheckpoint:
			ck := e.Checkpoint
			if ck == nil {
				continue
			}
			c.mu.Lock()
			// Keep the newest blob per fragment, and only for queries
			// still deployed — a checkpoint racing a retract must not
			// resurrect the query's state map entry.
			if rec := c.deps[ck.Query]; rec != nil {
				c.ckpts[peerKey{ck.Query, ck.Frag}] = ck.State
				// Bank the blob under its shape-compatibility key too:
				// displaced shared subscribers (which never checkpoint
				// privately) restore from here. Keys are shapes, not
				// queries, so the bank stays bounded by workload
				// diversity rather than churn volume.
				if key := c.plane.CompatKey(rec.shape, rec.base.Rate, int(ck.Frag)); key != "" {
					c.ckptCompat[key] = ck.State
				}
			}
			c.mu.Unlock()
		case KindStats:
			if e.Stats == nil {
				continue
			}
			c.mu.Lock()
			c.stats = append(c.stats, *e.Stats)
			c.mu.Unlock()
			select {
			case c.statsCh <- struct{}{}:
			default:
			}
		}
	}
}

// NetResults summarises a networked run.
type NetResults struct {
	// PerQuery maps query id → time-averaged result SIC. For a query
	// re-placed by failure recovery, the average covers only the
	// post-recovery epoch; for a query retracted mid-run, the mean is
	// frozen at retract time; a query submitted mid-run averages from
	// its own epoch plus warmup.
	PerQuery map[stream.QueryID]float64
	MeanSIC  float64
	Jain     float64
	Nodes    []StatsMsg
	// Recoveries lists the node failures the run survived, in detection
	// order. Empty for an undisturbed run.
	Recoveries []RecoveryEvent
}

func (c *Controller) results() *NetResults {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := &NetResults{PerQuery: make(map[stream.QueryID]float64)}
	var vals []float64
	for q, st := range c.sums {
		mean := 0.0
		if st.n > 0 {
			mean = st.sum / float64(st.n)
		}
		res.PerQuery[q] = mean
		vals = append(vals, mean)
	}
	// Retracted queries report the mean frozen at retract time; fairness
	// metrics cover the whole workload the run served, live or departed.
	for q, mean := range c.finished {
		res.PerQuery[q] = mean
		vals = append(vals, mean)
	}
	res.MeanSIC = metrics.Mean(vals)
	res.Jain = metrics.Jain(vals)
	res.Nodes = append(res.Nodes, c.stats...)
	res.Recoveries = append(res.Recoveries, c.recoveries...)
	return res
}
