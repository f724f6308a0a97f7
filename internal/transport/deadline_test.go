package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMemoryDeadlinePassthrough: the in-process transport hands the
// caller's context (deadline included) straight to the handler — the
// baseline the wire encoding must reproduce.
func TestMemoryDeadlinePassthrough(t *testing.T) {
	m := NewMemory()
	sawDeadline := make(chan time.Time, 1)
	m.Register(1, func(ctx context.Context, _ uint8, p []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("handler context has no deadline")
		}
		sawDeadline <- d
		return p, nil
	})
	want := time.Now().Add(3 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := m.Send(ctx, 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := <-sawDeadline; !got.Equal(want) {
		t.Errorf("handler deadline = %v, want %v", got, want)
	}
}

// TestTCPDeadlinePropagation: a client deadline crosses the wire as a
// relative budget and re-materializes as the handler's context
// deadline, close to the remaining client budget.
func TestTCPDeadlinePropagation(t *testing.T) {
	const budget = 2 * time.Second
	remaining := make(chan time.Duration, 1)
	addr, stop := startTCPNode(t, func(ctx context.Context, _ uint8, p []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			remaining <- -1
		} else {
			remaining <- time.Until(d)
		}
		return p, nil
	})
	defer stop()
	cli := NewTCP(map[NodeID]string{1: addr})
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := cli.Send(ctx, 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got := <-remaining
	if got < 0 {
		t.Fatal("handler context carried no deadline — budget was not propagated")
	}
	// The handler's budget is the client's minus (in-flight time + clock
	// skew on one host ≈ nothing): it must be positive and never exceed
	// what the client had.
	if got <= 0 || got > budget {
		t.Errorf("handler remaining budget = %v, want in (0, %v]", got, budget)
	}
	if got < budget/2 {
		t.Errorf("handler remaining budget = %v — lost more than half of %v in transit", got, budget)
	}

	// No caller deadline → no wire field → no handler deadline.
	if _, err := cli.Send(context.Background(), 1, 1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := <-remaining; got != -1 {
		t.Errorf("deadline-less send grew a handler deadline of %v", got)
	}
}

// TestTCPSendExpiredContext: a context that is already dead never
// touches the network.
func TestTCPSendExpiredContext(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	cli := NewTCP(map[NodeID]string{1: addr})
	defer cli.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.Send(ctx, 1, 1, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestTCPSendRejectsReservedOpBit: op codes with the deadline flag bit
// set cannot be encoded unambiguously and must be refused client-side.
func TestTCPSendRejectsReservedOpBit(t *testing.T) {
	addr, stop := startTCPNode(t, echoHandler)
	defer stop()
	cli := NewTCP(map[NodeID]string{1: addr})
	defer cli.Close()
	if _, err := cli.Send(context.Background(), 1, tagDeadline|3, nil); err == nil {
		t.Fatal("op with the reserved deadline bit was accepted")
	}
}

// rawV2Client opens a bare v2 connection to addr: magic preamble sent,
// reader/writer ready. The test speaks the wire protocol by hand.
func rawV2Client(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], magicV2)
	if _, err := conn.Write(magic[:]); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn), bufio.NewWriter(conn)
}

// TestServerDropsExpiredOnArrival: a request whose budget is already
// spent (zero, or garbage that decodes negative) is answered with
// statusExpired without running the handler, and counted.
func TestServerDropsExpiredOnArrival(t *testing.T) {
	reg := obs.NewRegistry()
	handled := make(chan struct{}, 16)
	srv := NewServer(func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		handled <- struct{}{}
		return p, nil
	})
	srv.Instrument(reg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck // exits on Close
	defer srv.Close()

	_, r, w := rawV2Client(t, lis.Addr().String())
	send := func(id uint32, budget []byte, body []byte) {
		t.Helper()
		payload := append(append([]byte(nil), budget...), body...)
		if err := writeFrameV2(w, id, 1|tagDeadline, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	zero := make([]byte, deadlineBytes)
	garbage := []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88} // decodes negative

	send(1, zero, []byte("dead"))
	send(2, garbage, []byte("also dead"))
	for i := 0; i < 2; i++ {
		id, status, payload, _, err := readFrameV2(r, false)
		if err != nil {
			t.Fatal(err)
		}
		if status != statusExpired {
			t.Fatalf("response %d: status = %d, want statusExpired", id, status)
		}
		if len(payload) != 0 {
			t.Errorf("statusExpired carried a %d-byte payload", len(payload))
		}
	}

	// A healthy budget on the same connection still dispatches.
	live := make([]byte, deadlineBytes)
	binary.BigEndian.PutUint64(live, uint64(5*time.Second))
	send(3, live, []byte("alive"))
	id, status, payload, _, err := readFrameV2(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || status != statusOK || string(payload) != "alive" {
		t.Fatalf("live request: id=%d status=%d payload=%q", id, status, payload)
	}
	select {
	case <-handled:
	default:
		t.Fatal("live request never reached the handler")
	}
	if n := len(handled); n != 0 {
		t.Fatalf("expired requests reached the handler %d times", n)
	}

	if got := reg.CounterValue("transport_srv_expired_total"); got != 2 {
		t.Errorf("transport_srv_expired_total = %d, want 2", got)
	}
	frames := reg.CounterValue("transport_srv_frames_total")
	sum := reg.CounterValue("transport_srv_admits_total") +
		reg.CounterValue("transport_srv_expired_total")
	if sum != frames {
		t.Errorf("admission invariant broken: admits+expired = %d, frames = %d", sum, frames)
	}
}

// TestServerKillsConnOnTruncatedDeadline: the deadline flag promises an
// 8-byte budget; a frame too short to hold one is a protocol violation
// and the server must drop the connection rather than guess.
func TestServerKillsConnOnTruncatedDeadline(t *testing.T) {
	srv := NewServer(echoHandler)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck // exits on Close
	defer srv.Close()

	conn, r, w := rawV2Client(t, lis.Addr().String())
	if err := writeFrameV2(w, 1, 1|tagDeadline, []byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, _, _, _, err := readFrameV2(r, false); err == nil {
		t.Fatal("server answered a truncated-deadline frame instead of dropping the conn")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server neither answered nor closed within 5s")
	}
}

// TestServerClosesNonV2Preamble: the 4-byte preamble is input from
// outside the program. A connection that opens with anything but the v2
// magic — a retired v1 frame, or arbitrary bytes — is closed without a
// byte of it reaching the handler or counting as a frame.
func TestServerClosesNonV2Preamble(t *testing.T) {
	for name, opening := range map[string][]byte{
		// v1 framing: uint32 length, op byte, payload.
		"v1 frame":  append([]byte{0, 0, 0, 8, 5}, "v1 body"...),
		"arbitrary": {0xDE, 0xAD, 0xBE, 0xEF},
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var handled atomic.Int32
			srv := NewServer(func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
				handled.Add(1)
				return p, nil
			})
			srv.Instrument(reg)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(lis) //nolint:errcheck // exits on Close
			defer srv.Close()

			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(opening); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			if n, err := conn.Read(make([]byte, 16)); err != io.EOF {
				t.Fatalf("server answered %d bytes (err %v), want the connection closed", n, err)
			}
			if n := handled.Load(); n != 0 {
				t.Errorf("handler ran %d times on a non-v2 connection", n)
			}
			if frames := reg.CounterValue("transport_srv_frames_total"); frames != 0 {
				t.Errorf("transport_srv_frames_total = %d, want 0", frames)
			}
		})
	}
}

// TestNodeForwardInheritsDeadline is the IAM-chain half of deadline
// propagation at the transport level: a handler that forwards with its
// own request's context hands the remaining budget to the next hop.
func TestNodeForwardInheritsDeadline(t *testing.T) {
	hopBudget := make(chan time.Duration, 1)
	leafAddr, stopLeaf := startTCPNode(t, func(ctx context.Context, _ uint8, p []byte) ([]byte, error) {
		if d, ok := ctx.Deadline(); ok {
			hopBudget <- time.Until(d)
		} else {
			hopBudget <- -1
		}
		return p, nil
	})
	defer stopLeaf()
	leafCli := NewTCP(map[NodeID]string{2: leafAddr})
	defer leafCli.Close()

	frontAddr, stopFront := startTCPNode(t, func(ctx context.Context, op uint8, p []byte) ([]byte, error) {
		return leafCli.Send(ctx, 2, op, p) // forward with the inherited ctx
	})
	defer stopFront()
	cli := NewTCP(map[NodeID]string{1: frontAddr})
	defer cli.Close()

	const budget = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := cli.Send(ctx, 1, 1, []byte("fwd")); err != nil {
		t.Fatal(err)
	}
	got := <-hopBudget
	if got <= 0 {
		t.Fatal("second hop saw no deadline — budget lost at the forwarding node")
	}
	if got > budget {
		t.Errorf("second hop budget %v exceeds the original %v", got, budget)
	}
	if got < budget/2 {
		t.Errorf("second hop budget %v — more than half of %v lost across two hops", got, budget)
	}
}
