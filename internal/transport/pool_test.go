package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// countedTCP returns a client over addrs instrumented into a fresh
// registry, so tests read its connection count from the same metrics
// an operator sees.
func countedTCP(t *testing.T, addrs map[NodeID]string) (*TCP, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cli := NewTCP(addrs)
	cli.Instrument(reg)
	t.Cleanup(func() { cli.Close() })
	return cli, reg
}

// wantOneConn asserts the client dialed exactly once and holds exactly
// one connection.
func wantOneConn(t *testing.T, reg *obs.Registry) {
	t.Helper()
	if d := reg.CounterValue("transport_tcp_dials_total"); d != 1 {
		t.Errorf("dials = %d, want 1", d)
	}
	if c := reg.GaugeValue("transport_tcp_pool_conns"); c != 1 {
		t.Errorf("pool conns = %d, want 1", c)
	}
}

// startRawV2Node runs a hand-rolled v2 peer (no Server involved) so
// tests control exactly how and when response frames come back. The
// react callback receives each decoded request and a reply function; it
// runs on the connection's read goroutine.
func startRawV2Node(t *testing.T, react func(id uint32, op uint8, payload []byte, reply func(id uint32, status uint8, payload []byte))) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				var magic [4]byte
				if _, err := io.ReadFull(r, magic[:]); err != nil || binary.BigEndian.Uint32(magic[:]) != magicV2 {
					return
				}
				var wmu sync.Mutex
				w := bufio.NewWriter(conn)
				reply := func(id uint32, status uint8, payload []byte) {
					wmu.Lock()
					defer wmu.Unlock()
					if err := writeFrameV2(w, id, status, payload); err == nil {
						w.Flush() //nolint:errcheck
					}
				}
				for {
					id, op, payload, _, err := readFrameV2(r, false)
					if err != nil {
						return
					}
					react(id, op, payload, reply)
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestMuxOutOfOrderResponses holds every request until three have
// arrived, then answers them newest-first. Each Send must still receive
// its own response — the demux routes by id, not arrival order.
func TestMuxOutOfOrderResponses(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	type pending struct {
		id      uint32
		payload []byte
	}
	var held []pending
	addr := startRawV2Node(t, func(id uint32, op uint8, payload []byte, reply func(uint32, uint8, []byte)) {
		mu.Lock()
		held = append(held, pending{id, append([]byte(nil), payload...)})
		if len(held) < n {
			mu.Unlock()
			return
		}
		batch := held
		held = nil
		mu.Unlock()
		for i := len(batch) - 1; i >= 0; i-- { // reversed completion order
			reply(batch[i].id, statusOK, append([]byte("echo:"), batch[i].payload...))
		}
	})

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			resp, err := cli.Send(context.Background(), 1, 1, []byte(want))
			if err != nil {
				errs[i] = err
				return
			}
			if got := string(resp); got != "echo:"+want {
				errs[i] = fmt.Errorf("response mismatch: got %q, want %q", got, "echo:"+want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	wantOneConn(t, reg)
}

// TestOneConnectionPerNode holds 64 concurrent Sends in flight at once
// with a blocking handler: all of them multiplex onto the node's single
// connection, however deep the queue — the transport never opens a
// second one.
func TestOneConnectionPerNode(t *testing.T) {
	const concurrent = 64
	release := make(chan struct{})
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	defer stop()
	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Send(context.Background(), 1, 1, []byte("x")); err != nil {
				t.Errorf("send: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.GaugeValue("transport_tcp_inflight") < concurrent {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d/%d requests in flight", reg.GaugeValue("transport_tcp_inflight"), concurrent)
		}
		time.Sleep(time.Millisecond)
	}
	wantOneConn(t, reg)
	close(release)
	wg.Wait()
	wantOneConn(t, reg)
}

// TestMuxConcurrencyTorture hammers one pooled connection from many
// goroutines; run under -race this exercises every mux lock. Each
// response must match its request exactly despite out-of-order
// completion on the server's worker pool.
func TestMuxConcurrencyTorture(t *testing.T) {
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return append([]byte{op}, p...), nil
	})
	defer stop()

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	const goroutines = 32
	const perG = 50
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				resp, err := cli.Send(context.Background(), 1, uint8(g%250), payload)
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					failures.Add(1)
					return
				}
				if len(resp) == 0 || resp[0] != uint8(g%250) || string(resp[1:]) != string(payload) {
					t.Errorf("g%d i%d: response mismatch %q", g, i, resp)
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		return
	}
	wantOneConn(t, reg)
	if inflight := reg.GaugeValue("transport_tcp_inflight"); inflight != 0 {
		t.Errorf("inflight = %d, want 0 at rest", inflight)
	}
}

// TestDeadConnEviction kills the server under a warm connection and
// verifies the client evicts it while idle — the demux goroutine sees
// the EOF with no Send in flight — and counts the death. The next Send
// fails loudly instead of being silently redialed mid-request, and once
// the node is back the Send after that redials.
func TestDeadConnEviction(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	if _, err := cli.Send(context.Background(), 1, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	wantOneConn(t, reg)

	stop() // server gone; the conn dies while idle

	deadline := time.Now().Add(5 * time.Second)
	for {
		conns := reg.GaugeValue("transport_tcp_pool_conns")
		deaths := reg.CounterValue("transport_tcp_conn_deaths_total")
		if conns == 0 && deaths == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead conn not evicted/counted: conns=%d deaths=%d", conns, deaths)
		}
		time.Sleep(time.Millisecond)
	}

	// The next Send fails loudly (no transparent redial to a dead node)…
	if _, err := cli.Send(context.Background(), 1, 1, []byte("x")); err == nil {
		t.Fatal("send to dead node succeeded")
	}

	// …and once the node listens again, the next Send redials.
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv := NewServer(echoHandler)
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()
	if resp, err := cli.Send(context.Background(), 1, 1, []byte("back")); err != nil || string(resp) != "\x01back" {
		t.Fatalf("send after restart: resp=%q err=%v", resp, err)
	}
	if d := reg.CounterValue("transport_tcp_dials_total"); d != 2 {
		t.Errorf("dials = %d, want 2 (one redial)", d)
	}
	if c := reg.GaugeValue("transport_tcp_pool_conns"); c != 1 {
		t.Errorf("pool conns = %d, want 1 after redial", c)
	}
}

// TestDialCoalescing fires a burst of first-contact Sends at one node:
// without coalescing each would dial its own connection; with it the
// burst waits on one dial.
func TestDialCoalescing(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	const burst = 16
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Send(context.Background(), 1, 1, []byte("x")); err != nil {
				t.Errorf("send: %v", err)
			}
		}()
	}
	wg.Wait()
	wantOneConn(t, reg)
}

// TestMuxContextCancelAbandonsWaiter cancels one Send mid-flight on a
// shared connection: the cancelled Send returns promptly with ctx.Err,
// the connection survives, and a later Send on the same conn works (the
// late response for the abandoned id is dropped by the demux).
func TestMuxContextCancelAbandonsWaiter(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		if op == 9 {
			<-gate
		}
		return p, nil
	})
	defer stop()
	defer gateOnce.Do(func() { close(gate) })

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	// Warm the conn so both Sends share it.
	if _, err := cli.Send(context.Background(), 1, 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cli.Send(ctx, 1, 9, []byte("slow"))
	if err == nil {
		t.Fatal("blocked send did not observe its context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled send took %v, want prompt return", elapsed)
	}
	gateOnce.Do(func() { close(gate) }) // let the abandoned handler finish

	if resp, err := cli.Send(context.Background(), 1, 1, []byte("after")); err != nil || string(resp) != "after" {
		t.Fatalf("conn did not survive abandoned waiter: resp=%q err=%v", resp, err)
	}
	wantOneConn(t, reg)
}

// TestMuxPayloadNotRetained checks the codec contract the sdds layer
// depends on: a request payload may be recycled the moment Send
// returns. Reusing one buffer for every request with a mutation between
// sends must never corrupt a frame.
func TestMuxPayloadNotRetained(t *testing.T) {
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return append([]byte(nil), p...), nil
	})
	defer stop()

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		resp, err := cli.Send(context.Background(), 1, 1, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range resp {
			if b != byte(i) {
				t.Fatalf("iteration %d: response byte %d — transport retained a recycled payload", i, b)
			}
		}
	}
	wantOneConn(t, reg)
}

// TestMuxPayloadNotRetainedConcurrent is TestMuxPayloadNotRetained with
// 16 callers on one connection, each overwriting its own buffer the
// moment Send returns, whether it succeeded or its context ended: a
// frame a leader writes for a follower must have left before that
// follower's Send returns. Every payload names its caller and round, so
// the node can tell a frame that left after its buffer was recycled.
func TestMuxPayloadNotRetainedConcurrent(t *testing.T) {
	const callers, rounds = 16, 200
	fill := func(g, i byte) byte { return byte(int(g)*rounds + int(i)) }
	var torn atomic.Int32
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		if len(p) < 2 || p[0] >= callers {
			torn.Add(1)
			return nil, nil
		}
		for _, b := range p[2:] {
			if b != fill(p[0], p[1]) {
				torn.Add(1)
				break
			}
		}
		return append([]byte(nil), p...), nil
	})
	defer stop()

	cli, reg := countedTCP(t, map[NodeID]string{1: addr})

	var wg sync.WaitGroup
	for g := byte(0); g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := byte(0); i < rounds; i++ {
				buf[0], buf[1] = g, i
				for j := 2; j < len(buf); j++ {
					buf[j] = fill(g, i)
				}
				// Every other round ends its context at once, so some
				// Sends return while their frames still wait for a leader.
				ctx, cancel := context.WithCancel(context.Background())
				if i%2 == 1 {
					go cancel()
				}
				resp, err := cli.Send(ctx, 1, 1, buf)
				cancel()
				for j := range buf {
					buf[j] = 0xFF // recycle the buffer at once
				}
				if err != nil {
					if i%2 == 0 || !errors.Is(err, context.Canceled) {
						t.Errorf("caller %d round %d: %v", g, i, err)
						return
					}
					continue
				}
				if len(resp) != len(buf) || resp[0] != g || resp[1] != i {
					t.Errorf("caller %d round %d: response %x is not its request's echo", g, i, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d frames reached the node after their caller recycled the payload", n)
	}
	wantOneConn(t, reg)
}
