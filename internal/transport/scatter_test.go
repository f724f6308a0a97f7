package transport

import (
	"context"
	"sync"
	"testing"
)

// startTCPNodes starts n servers running h and returns a client over
// them, nodes 0..n-1. stopAt(i) stops server i; every server still up is
// stopped at cleanup, after the client closes.
func startTCPNodes(t *testing.T, n int, h Handler) (cli *TCP, nodes []NodeID, stopAt func(int)) {
	t.Helper()
	addrs := make(map[NodeID]string, n)
	stops := make([]func(), n)
	for i := 0; i < n; i++ {
		addr, stop := startTCPNode(t, h)
		addrs[NodeID(i)] = addr
		stops[i] = sync.OnceFunc(stop)
		nodes = append(nodes, NodeID(i))
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
	})
	cli = NewTCP(addrs)
	t.Cleanup(func() { cli.Close() })
	return cli, nodes, func(i int) { stops[i]() }
}

// TestBroadcastCostsNoGoroutinePerLeg holds a Broadcast from an
// already-dialed client in flight, every node's handler blocked: the
// client runs no goroutine but its connections' demux loops and the
// broadcasting caller itself. A leg handed to a worker, or a writer
// goroutine per connection, shows up as more.
func TestBroadcastCostsNoGoroutinePerLeg(t *testing.T) {
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	cli, nodes, _ := startTCPNodes(t, 3, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		if op == 2 {
			entered <- struct{}{}
			<-release
		}
		return p, nil
	})
	for _, r := range Broadcast(context.Background(), cli, nodes, 1, []byte("warm")) {
		if r.Err != nil {
			t.Fatalf("warm-up leg to node %d: %v", r.Node, r.Err)
		}
	}
	base := clientGoroutines()

	done := make(chan []Result)
	go func() { done <- Broadcast(context.Background(), cli, nodes, 2, []byte("held")) }()
	for range nodes {
		<-entered
	}
	during := clientGoroutines()
	close(release)
	for _, r := range <-done {
		if r.Err != nil || string(r.Payload) != "held" {
			t.Errorf("leg to node %d: %q, %v", r.Node, r.Payload, r.Err)
		}
	}
	if during > base+1 {
		t.Errorf("client goroutines %d with a 3-leg Broadcast in flight, want at most %d (baseline + the caller)", during, base+1)
	}
}

// TestScatterWatchObservesEachLegOnce: a Watch-wrapped TCP or Memory
// transport runs its fan-out as one scatter, and the detector still
// sees every leg exactly once; a stopped node among three counts one
// failure.
func TestScatterWatchObservesEachLegOnce(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		cli, nodes, stopAt := startTCPNodes(t, 3, echoHandler)
		watchEachLegOnce(t, cli, nodes, stopAt)
	})
	t.Run("memory", func(t *testing.T) {
		m := NewMemory()
		nodes := []NodeID{0, 1, 2}
		for _, n := range nodes {
			m.Register(n, echoHandler)
		}
		watchEachLegOnce(t, m, nodes, func(i int) { m.Unregister(NodeID(i)) })
	})
}

func watchEachLegOnce(t *testing.T, tr Transport, nodes []NodeID, stopAt func(int)) {
	d := NewDetector(tr, nodes, DetectorPolicy{DownAfter: 2})
	w := d.Watch(tr)

	check := func(round int, failed NodeID) {
		t.Helper()
		for _, h := range d.Snapshot() {
			wantFail := 0
			if h.Node == failed {
				wantFail = 1
			}
			if h.PassiveSignals != uint64(round) || h.ConsecutiveFailures != wantFail {
				t.Errorf("round %d, node %d: %d passive signals and %d failures, want %d and %d",
					round, h.Node, h.PassiveSignals, h.ConsecutiveFailures, round, wantFail)
			}
		}
	}
	for _, r := range Broadcast(context.Background(), w, nodes, 1, []byte("x")) {
		if r.Err != nil {
			t.Fatalf("leg to node %d: %v", r.Node, r.Err)
		}
	}
	check(1, -1)

	stopAt(1)
	for _, r := range Broadcast(context.Background(), w, nodes, 1, []byte("x")) {
		if (r.Err != nil) != (r.Node == 1) {
			t.Errorf("leg to node %d: %v", r.Node, r.Err)
		}
	}
	check(2, 1)
}
