package sdds

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// insertTCPBenchCluster builds the same four-node cluster as
// insertBenchCluster but over real loopback sockets: every node runs a
// v2 Server on 127.0.0.1, the client is a pooled multiplexed TCP
// transport, and node-to-node forwards ride their own TCP transport so
// nothing short-circuits through process memory. This is the fabric the
// wire-protocol work targets, and the one the regression test times.
// The client is the bare *TCP, so a fan-out runs its own caller-side
// scatter; sends reads the client's send count from its own counters,
// as every send acquires a connection by one dial or one reuse.
func insertTCPBenchCluster(tb testing.TB, nodes int) (c *Cluster, sends func() int64, cleanup func()) {
	tb.Helper()
	ids := make([]transport.NodeID, nodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		tb.Fatal(err)
	}
	peers := transport.NewTCP(nil)
	addrs := make(map[transport.NodeID]string, nodes)
	servers := make([]*transport.Server, 0, nodes)
	listeners := make([]net.Listener, 0, nodes)
	for _, id := range ids {
		node := NewNode(id, peers, place)
		srv := transport.NewServer(node.Handler())
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(lis)
		peers.AddNode(id, lis.Addr().String())
		addrs[id] = lis.Addr().String()
		servers = append(servers, srv)
		listeners = append(listeners, lis)
	}
	cli := transport.NewTCP(addrs)
	reg := obs.NewRegistry()
	cli.Instrument(reg)
	sends = func() int64 {
		return int64(reg.CounterValue("transport_tcp_dials_total") + reg.CounterValue("transport_tcp_conn_reuses_total"))
	}
	cleanup = func() {
		cli.Close()
		peers.Close()
		for i := range servers {
			listeners[i].Close()
			servers[i].Close()
		}
	}
	return NewCluster(cli, place), sends, cleanup
}

// TestBatchedInsertWallClockRegression locks in the batched-insert
// contract on BOTH axes: batched InsertIndexed must send fewer RPCs
// than the sequential path (roughly one per destination node instead of
// one per index record) AND win on wall clock. The wall-clock half used
// to be a documented regression — the request-per-connection-turn
// transport ate the per-RPC savings, and this test t.Skipped with the
// measured gap — until ROADMAP item 2 landed: the pooled, multiplexed
// v2 wire protocol, batch requests encoded straight into pooled
// writers, streaming batch decode, and fan-out over warm-stack pooled
// workers. The comparison runs over real loopback TCP, the fabric the
// regression lived on: sequential pays one round-trip per index record
// while batched scatters one frame per destination node, so the per-RPC
// saving now shows up as wall-clock time. Both halves are hard
// assertions so the gain cannot silently regress.
func TestBatchedInsertWallClockRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	pl := benchPipeline(t, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	const records = 300
	recSets := make([][]core.IndexRecord, records)
	for i := range recSets {
		rc := make([]byte, 24)
		for j := range rc {
			rc[j] = byte('A' + rng.Intn(26))
		}
		recs, err := pl.BuildIndex(uint64(i+1), rc)
		if err != nil {
			t.Fatal(err)
		}
		recSets[i] = recs
	}

	// One timed pass over a fresh cluster, warmed once to keep one-time
	// setup (lazy bucket creation, first splits, pool dials) out of the
	// comparison.
	measure := func(batched bool) (time.Duration, int64) {
		c, sends, cleanup := insertTCPBenchCluster(t, 4)
		defer cleanup()
		insert := func() {
			for _, recs := range recSets {
				var err error
				if batched {
					err = c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits)
				} else {
					err = insertIndexedSequential(ctx, c, FileIndex, recs, pl.K(), slotBits)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		insert() // warm-up pass
		warm := sends()
		start := time.Now()
		insert()
		return time.Since(start), sends() - warm
	}

	// Best-of-3 per strategy to damp scheduler noise, the strategies
	// alternating trial by trial so a change in host load lands on both.
	var seqTime, batTime time.Duration
	var seqRPCs, batRPCs int64
	for trial := 0; trial < 3; trial++ {
		if d, rpcs := measure(false); trial == 0 || d < seqTime {
			seqTime, seqRPCs = d, rpcs
		}
		if d, rpcs := measure(true); trial == 0 || d < batTime {
			batTime, batRPCs = d, rpcs
		}
	}

	if batRPCs >= seqRPCs {
		t.Fatalf("batching no longer saves RPCs: batched %d >= sequential %d",
			batRPCs, seqRPCs)
	}
	t.Logf("sequential: %v for %d RPCs (%.2f rpcs/record)", seqTime, seqRPCs,
		float64(seqRPCs)/records)
	t.Logf("batched:    %v for %d RPCs (%.2f rpcs/record)", batTime, batRPCs,
		float64(batRPCs)/records)

	if batTime >= seqTime {
		t.Fatalf("batched InsertIndexed sent %.1fx fewer RPCs (%d vs %d) but was "+
			"%.2fx SLOWER on wall clock (%v vs %v); batching must beat "+
			"sequential on both",
			float64(seqRPCs)/float64(batRPCs), batRPCs, seqRPCs,
			float64(batTime)/float64(seqTime), batTime, seqTime)
	}
}
