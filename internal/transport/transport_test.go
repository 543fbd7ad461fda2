package transport

import (
	"testing"
	"time"

	"repro/internal/cql"
	"repro/internal/stream"
)

func TestBatchMsgRoundTrip(t *testing.T) {
	b := stream.NewBatch(3, 1, -1, 500, 2, 2)
	b.Port = 4
	b.Tuples[0] = stream.Tuple{TS: 500, SIC: 0.1, V: b.Tuples[0].V}
	b.Tuples[0].V[0], b.Tuples[0].V[1] = 7, 8
	b.Tuples[1] = stream.Tuple{TS: 510, SIC: 0.2, V: b.Tuples[1].V}
	b.Tuples[1].V[0], b.Tuples[1].V[1] = 9, 10
	b.RecomputeSIC()

	m := FromBatch(b)
	got := m.ToBatch()
	if got.Query != 3 || got.Frag != 1 || got.Port != 4 || got.TS != 500 {
		t.Errorf("header: %+v", got)
	}
	if got.Source != -1 {
		t.Errorf("derived source: %d", got.Source)
	}
	if got.Len() != 2 || got.Tuples[1].V[1] != 10 || got.Tuples[0].SIC != 0.1 {
		t.Errorf("tuples: %+v", got.Tuples)
	}
	if got.SIC != b.SIC {
		t.Errorf("SIC header: %g vs %g", got.SIC, b.SIC)
	}
}

// Table 1 statements (internal/cql/shape_test.go) the transport tests
// deploy: AVG over all sources, and AVG over a single source.
const (
	avgAllCQL = "Select Avg(t.v) From AllSrc[Range 1 sec]"
	avgCQL    = "Select Avg(t.v) From Src[Range 1 sec]"
)

func TestBuildPlanNames(t *testing.T) {
	s := &NodeServer{plans: cql.NewPlanCache()}
	// CQL text partitions into the requested fragment count.
	p, err := s.buildPlan(&Deploy{CQL: "Select Avg(t.v) From Src[Range 1 sec]", Fragments: 3, Dataset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFragments() != 3 {
		t.Errorf("CQL deploy built %d fragments, want 3", p.NumFragments())
	}
	if _, err := s.buildPlan(&Deploy{CQL: "Select Bogus(", Fragments: 1}); err == nil {
		t.Error("malformed CQL accepted")
	}
}

// TestNetworkedFederationEndToEnd spins up two node servers and a
// controller on localhost, runs a short overloaded deployment over real
// sockets and timers, and checks that shedding happened, results flowed
// and fairness was computed.
func TestNetworkedFederationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := NewNodeServer(NodeServerConfig{
			Name:           "n" + string(rune('0'+i)),
			Addr:           "127.0.0.1:0",
			CapacityPerSec: 800,
			Policy:         "balance-sic",
			Seed:           int64(i + 1),
			Quiet:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	ctrl, err := NewController(ControllerConfig{
		STW:      4 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	// Two local queries plus one spanning both nodes; demand ~2,400
	// tuples/sec per node against 800 of capacity.
	ids := make([]stream.QueryID, 0, 3)
	for _, d := range []struct {
		frags     int
		placement []int
	}{
		{1, []int{0}},
		{1, []int{1}},
		{2, []int{0, 1}},
	} {
		id, err := ctrl.Submit(avgAllCQL, d.frags, 1 /* uniform */, 120, 4, d.placement)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	res, err := ctrl.Run(6*time.Second, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerQuery) != 3 {
		t.Fatalf("per-query results: %v", res.PerQuery)
	}
	for _, id := range ids {
		sic := res.PerQuery[id]
		if sic <= 0.02 || sic > 1.2 {
			t.Errorf("query %d: SIC %.3f implausible", id, sic)
		}
	}
	if res.Jain < 0.7 {
		t.Errorf("networked Jain %.3f", res.Jain)
	}
	var shed int64
	for _, ns := range res.Nodes {
		shed += ns.ShedTuples
	}
	if shed == 0 {
		t.Error("no shedding over the network run")
	}
	if len(res.Nodes) != 2 {
		t.Errorf("stats from %d nodes", len(res.Nodes))
	}
}

func TestDeployValidation(t *testing.T) {
	c, err := NewController(ControllerConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(avgAllCQL, 2, 0, 10, 1, []int{0}); err == nil {
		t.Error("placement length mismatch accepted")
	}
}
