package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

// stubTransport scripts responses by global call index — per-call
// outcomes without a real network.
type stubTransport struct {
	mu    sync.Mutex
	calls int
	fn    func(ctx context.Context, call int, node NodeID, op uint8) ([]byte, error)
}

func (s *stubTransport) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	s.mu.Lock()
	c := s.calls
	s.calls++
	fn := s.fn
	s.mu.Unlock()
	return fn(ctx, c, node, op)
}

func (s *stubTransport) Close() error { return nil }

// alwaysExpired answers every send the way a live node past the
// caller's deadline does.
func alwaysExpired(_ context.Context, _ int, node NodeID, _ uint8) ([]byte, error) {
	return nil, &ExpiredError{Node: node}
}

// TestRetryObserverClassification pins the full passive-signal map:
// what each Send outcome through Detector.Watch reports to the failure
// detector, and that Watch hands the outcome to the caller unchanged.
func TestRetryObserverClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		observed bool // reaches the detector at all
		asAlive  bool // counts as evidence the node is alive
	}{
		{"success", nil, true, true},
		{"expired", &ExpiredError{Node: 1}, true, true},
		{"remote handler error", &RemoteError{Node: 1, Msg: "no bucket"}, true, true},
		{"caller deadline", context.DeadlineExceeded, false, false},
		{"caller cancel", context.Canceled, false, false},
		{"transport failure", ErrInjectedDrop, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := &stubTransport{fn: func(context.Context, int, NodeID, uint8) ([]byte, error) {
				if tc.err == nil {
					return []byte("ok"), nil
				}
				return nil, tc.err
			}}
			d := newTestDetector(NewMemory(), []NodeID{1}, 1) // hair-trigger: one bad signal = down
			_, err := d.Watch(inner).Send(context.Background(), 1, 1, nil)
			if err != tc.err {
				t.Fatalf("Watch returned %v, want the inner error %v unchanged", err, tc.err)
			}
			snap := d.Snapshot()[0]
			if !tc.observed {
				if snap.PassiveSignals != 0 {
					t.Fatalf("detector saw %d signals, want none", snap.PassiveSignals)
				}
				return
			}
			if snap.PassiveSignals != 1 {
				t.Fatalf("detector saw %d signals, want 1", snap.PassiveSignals)
			}
			if alive := snap.State == NodeUp; alive != tc.asAlive {
				t.Errorf("node state %v after %v, want alive=%v", snap.State, tc.err, tc.asAlive)
			}
		})
	}
}

// TestWatchForwardsCtxSender: Watch adds no blocking of its own, so it
// carries the CtxSender marker exactly when the transport it wraps does.
func TestWatchForwardsCtxSender(t *testing.T) {
	d := newTestDetector(NewMemory(), []NodeID{0}, 1)
	tcp := NewTCP(nil)
	defer tcp.Close()
	if cs, ok := d.Watch(tcp).(CtxSender); !ok || !cs.SendsWithContext() {
		t.Error("watched TCP lost the CtxSender marker")
	}
	if cs, ok := d.Watch(NewMemory()).(CtxSender); ok && cs.SendsWithContext() {
		t.Error("watched Memory claims to abort on context end")
	}
}

// TestDetectorIgnoresBackpressure: a node dropping expired requests is
// alive, and no number of expired answers may mark it suspect — while
// genuine failures still take it down.
func TestDetectorIgnoresBackpressure(t *testing.T) {
	m := NewMemory()
	m.Register(0, echoHandler)
	d := newTestDetector(m, []NodeID{0}, 1) // hair-trigger: one bad signal = down

	for i := 0; i < 20; i++ {
		d.ObserveSend(0, &ExpiredError{Node: 0})
	}
	if st := stateOf(d, 0); st != NodeUp {
		t.Fatalf("node marked %v on expired answers alone, want up", st)
	}
	d.ObserveSend(0, errors.New("connection refused"))
	if st := stateOf(d, 0); st != NodeDown {
		t.Fatalf("real failure no longer detected: state %v", st)
	}
}

// TestRetryDetectorOverloadEndToEnd watches a transport whose every
// answer is expired (the esdds self-healing stack under saturation) and
// hammers it: the node must stay Up throughout, while the caller still
// sees each expiry as its own deadline.
func TestRetryDetectorOverloadEndToEnd(t *testing.T) {
	m := NewMemory()
	m.Register(1, echoHandler)
	d := newTestDetector(m, []NodeID{1}, 1)
	tr := d.Watch(&stubTransport{fn: alwaysExpired})

	for i := 0; i < 50; i++ {
		if _, err := tr.Send(context.Background(), 1, 1, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if st := stateOf(d, 1); st != NodeUp {
		t.Fatalf("sustained expiries marked the node %v, want up", st)
	}
	if n := d.Snapshot()[0].PassiveSignals; n != 50 {
		t.Fatalf("detector saw %d passive signals, want 50", n)
	}
}

// TestServerPropagatesOverloadFromHandler covers the forward chain: a
// handler whose deadline ran out (here, or at the next hop) answers
// statusExpired rather than flattening into a generic remote error, and
// ordinary handler errors still surface as RemoteError.
func TestServerPropagatesOverloadFromHandler(t *testing.T) {
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, _ []byte) ([]byte, error) {
		switch op {
		case 2:
			return nil, context.DeadlineExceeded
		case 3:
			return nil, &ExpiredError{Node: 7} // a forward that expired downstream
		default:
			return nil, errors.New("plain handler failure")
		}
	})
	defer stop()
	cli := NewTCP(map[NodeID]string{3: addr})
	defer cli.Close()

	for _, op := range []uint8{2, 3} {
		_, err := cli.Send(context.Background(), 3, op, nil)
		var ee *ExpiredError
		if !errors.As(err, &ee) {
			t.Fatalf("op %d: handler deadline expiry came back as %v, want *ExpiredError", op, err)
		}
		if ee.Node != 3 {
			t.Errorf("op %d: expiry attributed to node %d, want the answering node 3", op, ee.Node)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("op %d: ExpiredError does not match context.DeadlineExceeded", op)
		}
	}

	// Ordinary handler errors still surface as RemoteError.
	_, err := cli.Send(context.Background(), 3, 9, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("plain handler error came back as %v, want *RemoteError", err)
	}
}

// rawV2Server accepts one connection, checks the v2 preamble, and
// answers every request frame with status(op) and a payload that must
// never reach a decoder — a peer speaking statuses this client lacks.
func rawV2Server(t *testing.T, status func(op uint8) uint8) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		var magic [4]byte
		if _, err := io.ReadFull(r, magic[:]); err != nil || binary.BigEndian.Uint32(magic[:]) != magicV2 {
			return
		}
		for {
			id, op, _, _, err := readFrameV2(r, false)
			if err != nil {
				return
			}
			if writeFrameV2(w, id, status(op), []byte("not a response")) != nil || w.Flush() != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// TestTCPSendRejectsUnknownStatus: a status other than OK, Err or
// Expired — the retired overload status 2 from an older daemon, or 7
// from anything else — is an error naming the node and the status, not
// a payload handed to the caller as data. The node answered, so the
// error is a RemoteError: never retried blindly, never read as death.
func TestTCPSendRejectsUnknownStatus(t *testing.T) {
	addr := rawV2Server(t, func(op uint8) uint8 { return op })
	cli := NewTCP(map[NodeID]string{4: addr})
	defer cli.Close()

	for _, status := range []uint8{2, 7} {
		resp, err := cli.Send(context.Background(), 4, status, []byte("req"))
		if err == nil {
			t.Fatalf("status %d: Send returned %q as data", status, resp)
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Node != 4 {
			t.Fatalf("status %d: err = %v, want a *RemoteError from node 4", status, err)
		}
		if want := fmt.Sprintf("node 4: unknown response status %d", status); !strings.Contains(err.Error(), want) {
			t.Errorf("status %d: err %q does not name the status (want %q)", status, err, want)
		}
	}
}
