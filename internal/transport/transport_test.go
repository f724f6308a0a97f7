package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func echoHandler(_ context.Context, op uint8, payload []byte) ([]byte, error) {
	if op == 99 {
		return nil, errors.New("boom")
	}
	out := append([]byte{op}, payload...)
	return out, nil
}

func TestMemorySendAndErrors(t *testing.T) {
	m := NewMemory()
	m.Register(1, echoHandler)
	ctx := context.Background()

	resp, err := m.Send(ctx, 1, 7, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("\x07hi")) {
		t.Errorf("resp = %q", resp)
	}
	// Handler error surfaces as RemoteError.
	_, err = m.Send(ctx, 1, 99, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Node != 1 || re.Msg != "boom" {
		t.Errorf("err = %v", err)
	}
	// Unknown node.
	if _, err := m.Send(ctx, 5, 1, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	// Cancelled context.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.Send(cctx, 1, 1, nil); err == nil {
		t.Error("cancelled context accepted")
	}
	// Closed transport.
	m.Close()
	if _, err := m.Send(ctx, 1, 1, nil); err == nil {
		t.Error("closed transport accepted send")
	}
}

func TestMemoryNodes(t *testing.T) {
	m := NewMemory()
	for _, id := range []NodeID{3, 1, 2} {
		m.Register(id, echoHandler)
	}
	got := m.Nodes()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Nodes = %v", got)
	}
}

func TestBroadcast(t *testing.T) {
	m := NewMemory()
	var calls int32
	for i := NodeID(0); i < 8; i++ {
		id := i
		m.Register(id, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
			atomic.AddInt32(&calls, 1)
			if id == 3 {
				return nil, errors.New("node 3 down")
			}
			return []byte{byte(id)}, nil
		})
	}
	results := Broadcast(context.Background(), m, m.Nodes(), 1, []byte("q"))
	if len(results) != 8 {
		t.Fatalf("%d results", len(results))
	}
	if atomic.LoadInt32(&calls) != 8 {
		t.Errorf("%d calls", calls)
	}
	for i, r := range results {
		if r.Node != NodeID(i) {
			t.Errorf("result %d from node %d", i, r.Node)
		}
		if i == 3 {
			if r.Err == nil {
				t.Error("node 3 error lost")
			}
			continue
		}
		if r.Err != nil || len(r.Payload) != 1 || r.Payload[0] != byte(i) {
			t.Errorf("result %d: %v %q", i, r.Err, r.Payload)
		}
	}
}

func TestScatter(t *testing.T) {
	m := NewMemory()
	for i := NodeID(0); i < 4; i++ {
		m.Register(i, echoHandler)
	}
	// Results answer the nodes in the order given, not in ID order.
	nodes := []NodeID{3, 0, 2}
	results := ScatterList(context.Background(), m, 5, nodes, [][]byte{[]byte("d"), []byte("a"), []byte("c")})
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	wantPayload := []string{"\x05d", "\x05a", "\x05c"}
	for i, r := range results {
		if r.Node != nodes[i] || string(r.Payload) != wantPayload[i] {
			t.Errorf("result %d: node %d payload %q", i, r.Node, r.Payload)
		}
	}
}

// startTCPNode spins up a server with the handler and returns its
// address and a closer.
func startTCPNode(t *testing.T, h Handler) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	done := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(done)
	}()
	return lis.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func TestTCPRoundTrip(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	tr := NewTCP(map[NodeID]string{1: addr})
	defer tr.Close()
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("req-%d", i))
		resp, err := tr.Send(ctx, 1, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, append([]byte{7}, payload...)) {
			t.Errorf("resp = %q", resp)
		}
	}
}

func TestTCPRemoteError(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	tr := NewTCP(map[NodeID]string{1: addr})
	defer tr.Close()
	_, err := tr.Send(context.Background(), 1, 99, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Errorf("err = %v", err)
	}
	// The connection survives a handler error: next request works.
	if _, err := tr.Send(context.Background(), 1, 1, []byte("x")); err != nil {
		t.Errorf("request after error failed: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	var served int32
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		atomic.AddInt32(&served, 1)
		return p, nil
	})
	defer stop()
	tr := NewTCP(map[NodeID]string{1: addr})
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				payload := []byte{byte(g), byte(i)}
				resp, err := tr.Send(context.Background(), 1, 1, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- fmt.Errorf("corrupted response %q for %q", resp, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&served) != 400 {
		t.Errorf("served %d requests, want 400", served)
	}
}

func TestTCPLargePayload(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	tr := NewTCP(map[NodeID]string{1: addr})
	defer tr.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	resp, err := tr.Send(context.Background(), 1, 2, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp[1:], payload) {
		t.Error("large payload corrupted")
	}
}

func TestTCPUnknownAndUnreachable(t *testing.T) {
	tr := NewTCP(map[NodeID]string{})
	defer tr.Close()
	if _, err := tr.Send(context.Background(), 9, 1, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	dead := NewTCP(map[NodeID]string{1: "127.0.0.1:1"}) // nothing listens on port 1
	defer dead.Close()
	if _, err := dead.Send(context.Background(), 1, 1, nil); err == nil {
		t.Error("unreachable node accepted")
	}
}

func TestTCPContextDeadline(t *testing.T) {
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		time.Sleep(2 * time.Second)
		return p, nil
	})
	defer stop()
	tr := NewTCP(map[NodeID]string{1: addr})
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Send(ctx, 1, 1, []byte("slow"))
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if time.Since(start) > time.Second {
		t.Error("deadline not enforced promptly")
	}
}

func TestTCPBroadcastAcrossNodes(t *testing.T) {
	addrs := make(map[NodeID]string)
	var stops []func()
	for i := NodeID(0); i < 4; i++ {
		id := i
		addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
			return []byte{byte(id)}, nil
		})
		addrs[id] = addr
		stops = append(stops, stop)
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	tr := NewTCP(addrs)
	defer tr.Close()
	results := Broadcast(context.Background(), tr, tr.Nodes(), 1, nil)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Payload[0] != byte(i) {
			t.Errorf("result %d: %v %v", i, r.Err, r.Payload)
		}
	}
}

func TestTCPAddNode(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	tr := NewTCP(nil)
	defer tr.Close()
	tr.AddNode(7, addr)
	if _, err := tr.Send(context.Background(), 7, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	nodes := tr.Nodes()
	if len(nodes) != 1 || nodes[0] != 7 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestScatterAbortsOnContextCancel(t *testing.T) {
	m := NewMemory()
	m.Register(0, echoHandler)
	release := make(chan struct{})
	m.Register(1, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		<-release // a hung node: never answers until cleanup
		return nil, nil
	})
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := ScatterList(ctx, m, 7, []NodeID{0, 1}, [][]byte{[]byte("a"), []byte("b")})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ScatterList blocked %v on a hung node instead of aborting", elapsed)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	// Node 0 answered before the cancel; node 1's pending send must
	// carry the context error.
	if results[0].Err != nil {
		t.Errorf("healthy node result: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("hung node err = %v, want context.Canceled", results[1].Err)
	}
}

func TestBroadcastAbortsOnContextDeadline(t *testing.T) {
	m := NewMemory()
	release := make(chan struct{})
	m.Register(0, echoHandler)
	m.Register(1, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := Broadcast(ctx, m, []NodeID{0, 1}, 7, nil)
	if results[0].Err != nil {
		t.Errorf("healthy node result: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("hung node err = %v, want context.DeadlineExceeded", results[1].Err)
	}
}
