package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPoolWaitersFailFastOnConnDeath: Sends multiplexed onto a
// connection that dies while their responses are pending must fail
// immediately with the connection error — not sit out their full
// context deadline waiting for frames that can never arrive.
func TestPoolWaitersFailFastOnConnDeath(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c) //nolint:errcheck // black hole: read requests, answer nothing
		}
	}()

	cli, reg := countedTCP(t, map[NodeID]string{1: lis.Addr().String()})

	const n = 6
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := cli.Send(ctx, 1, 1, []byte("doomed"))
			errCh <- err
		}()
	}
	// Wait until every request is written and waiting on a response.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.GaugeValue("transport_tcp_inflight") == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests in flight", reg.GaugeValue("transport_tcp_inflight"), n)
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	for i := 0; i < n; i++ {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("send on a dead conn succeeded")
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter sat out its deadline instead of failing fast: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still blocked 5s after its conn died", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("waiters took %v to fail after conn death", elapsed)
	}
}

// clientGoroutines counts the goroutines running this package's TCP
// client: connections' demux loops, dials, Send waiters and fan-out
// callers. Other tests' leftovers and the parked server workers run
// none of that code, so they do not move the count.
func clientGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("transport.(*TCP).")) || bytes.Contains(g, []byte("transport.(*muxConn).")) {
			count++
		}
	}
	return count
}

// TestPoolSaturationNoGoroutineLeak: bursts of 100 concurrent Sends
// queue onto the node's one connection; repeating the burst must not
// grow the client's goroutine population — queued dials and abandoned
// waiters all terminate — nor open a second connection.
func TestPoolSaturationNoGoroutineLeak(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < 100; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cli.Send(context.Background(), 1, 1, []byte("x")); err != nil {
					t.Errorf("send: %v", err)
				}
			}()
		}
		wg.Wait()
	}

	// Warm burst: establishes the conn, whose demux loop is the
	// baseline, not a leak.
	burst()
	base := clientGoroutines()

	for i := 0; i < 3; i++ {
		burst()
	}
	wantOneConn(t, reg)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := clientGoroutines(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client goroutines grew from %d to %d across repeated saturation bursts",
				base, clientGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
