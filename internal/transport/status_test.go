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
	"time"

	"repro/internal/obs"
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

func (s *stubTransport) setFn(fn func(ctx context.Context, call int, node NodeID, op uint8) ([]byte, error)) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func (s *stubTransport) Nodes() []NodeID { return nil }
func (s *stubTransport) Close() error    { return nil }

// alwaysExpired answers every send the way a live node past the
// caller's deadline does.
func alwaysExpired(_ context.Context, _ int, node NodeID, _ uint8) ([]byte, error) {
	return nil, &ExpiredError{Node: node}
}

func quickPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Multiplier:  2,
	}
}

// TestOverloadDoesNotTripBreaker: expired responses come from a live
// node that answered too late. They must not count toward the circuit
// breaker's consecutive-failure threshold, and the observer (the
// detector in the real stack) must see them as successes.
func TestOverloadDoesNotTripBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	inner := &stubTransport{fn: alwaysExpired}
	p := quickPolicy()
	p.FailureThreshold = 2
	p.Cooldown = time.Hour
	r := NewRetry(inner, p, 1)
	r.Instrument(reg)
	rec := &recordingObserver{}
	r.SetObserver(rec)

	for i := 0; i < 10; i++ {
		_, err := r.Send(context.Background(), 1, 1, nil)
		var ee *ExpiredError
		if !errors.As(err, &ee) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("send %d: err = %v, want an ExpiredError matching DeadlineExceeded", i, err)
		}
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("send %d rejected by breaker — a slow node turned into a dead one", i)
		}
	}
	st := r.NodeStats(1)
	if st.ConsecutiveFailures != 0 || st.BreakerTrips != 0 || st.BreakerOpen {
		t.Errorf("breaker fed by expired answers: %+v", st)
	}
	if st.Retries != 0 {
		t.Errorf("expired answers retried %d times; an expiry is the caller's timeout", st.Retries)
	}
	if got := reg.CounterValue("transport_retry_attempt_failures_total"); got != 10 {
		t.Errorf("transport_retry_attempt_failures_total = %d, want 10", got)
	}
	rec.mu.Lock()
	seen := len(rec.errs)
	for i, e := range rec.errs {
		if e != nil {
			t.Errorf("observer signal %d = %v, want nil (node is alive)", i, e)
		}
	}
	rec.mu.Unlock()
	if seen != 10 {
		t.Errorf("observer saw %d signals, want 10", seen)
	}

	// Real failures still count: two take the breaker down.
	inner.setFn(func(context.Context, int, NodeID, uint8) ([]byte, error) {
		return nil, ErrInjectedDrop
	})
	r.Send(context.Background(), 1, 1, nil) //nolint:errcheck
	r.Send(context.Background(), 1, 1, nil) //nolint:errcheck
	if st := r.NodeStats(1); !st.BreakerOpen {
		t.Errorf("real failures no longer trip the breaker: %+v", st)
	}
}

// TestRetryObserverClassification pins the full passive-signal map:
// what each error class reports to the failure detector.
func TestRetryObserverClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		observed bool // reaches the observer at all
		asAlive  bool // reported with err == nil
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
			p := quickPolicy()
			p.MaxAttempts = 1
			r := NewRetry(inner, p, 1)
			rec := &recordingObserver{}
			r.SetObserver(rec)
			r.Send(context.Background(), 1, 1, nil) //nolint:errcheck // outcome is the observer's view
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if !tc.observed {
				if len(rec.errs) != 0 {
					t.Fatalf("observer saw %v, want no signal", rec.errs)
				}
				return
			}
			if len(rec.errs) != 1 {
				t.Fatalf("observer saw %d signals, want 1", len(rec.errs))
			}
			if alive := rec.errs[0] == nil; alive != tc.asAlive {
				t.Errorf("observed err = %v, want alive=%v", rec.errs[0], tc.asAlive)
			}
		})
	}
}

// TestDetectorIgnoresBackpressure: a node dropping expired requests is
// alive, and no number of expired answers may mark it suspect — while
// genuine failures still take it down.
func TestDetectorIgnoresBackpressure(t *testing.T) {
	m := NewMemory()
	m.Register(0, echoHandler)
	d := newTestDetector(m, []NodeID{0}, 1, 1) // hair-trigger: one bad signal = down

	for i := 0; i < 20; i++ {
		d.ObserveSend(0, &ExpiredError{Node: 0})
	}
	if st := d.State(0); st != NodeUp {
		t.Fatalf("node marked %v on expired answers alone, want up", st)
	}
	d.ObserveSend(0, errors.New("connection refused"))
	if st := d.State(0); st != NodeDown {
		t.Fatalf("real failure no longer detected: state %v", st)
	}
}

// TestRetryDetectorOverloadEndToEnd wires Retry's observer to a
// Detector (the esdds stack) and hammers a transport whose every answer
// is expired: the node must stay Up throughout.
func TestRetryDetectorOverloadEndToEnd(t *testing.T) {
	m := NewMemory()
	m.Register(1, echoHandler)
	r := NewRetry(&stubTransport{fn: alwaysExpired}, quickPolicy(), 1)
	d := newTestDetector(m, []NodeID{1}, 1, 1)
	r.SetObserver(d)

	for i := 0; i < 50; i++ {
		if _, err := r.Send(context.Background(), 1, 1, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if st := d.State(1); st != NodeUp {
		t.Fatalf("sustained expiries marked the node %v, want up", st)
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
		if Retryable(err) {
			t.Errorf("status %d: unknown status classified retryable", status)
		}
	}
}
