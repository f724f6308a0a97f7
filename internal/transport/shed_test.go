package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// shedClock is a hand-cranked clock for deterministic control-loop
// tests: windows rotate exactly when the test advances time.
type shedClock struct{ t time.Time }

func (c *shedClock) now() time.Time          { return c.t }
func (c *shedClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newShedClock() *shedClock               { return &shedClock{t: time.Unix(1_000_000, 0)} }
func clockedShedder(p ShedPolicy) (*Shedder, *shedClock) {
	s := NewShedder(p)
	clk := newShedClock()
	s.now = clk.now
	return s, clk
}

func TestShedderConcurrencyLimitBinds(t *testing.T) {
	s := NewShedder(ShedPolicy{MinLimit: 2, MaxLimit: 2, Target: 7 * time.Millisecond})
	t1, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("first admit refused")
	}
	t2, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("second admit refused under limit 2")
	}
	_, hint, ok := s.Admit(1)
	if ok {
		t.Fatal("admitted past the concurrency limit")
	}
	// With no completed window yet the hint floors at Target.
	if hint != 7*time.Millisecond {
		t.Errorf("cold retry-after hint = %v, want Target (7ms)", hint)
	}
	s.Done(t1)
	t3, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("slot freed by Done not reusable")
	}
	if got := s.Inflight(); got != 2 {
		t.Errorf("inflight = %d, want 2", got)
	}
	s.Done(t2)
	s.Done(t3)
	if got := s.Inflight(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
}

func TestShedderRetryAfterHintCapped(t *testing.T) {
	s := NewShedder(ShedPolicy{MinLimit: 1, MaxLimit: 1})
	// Pretend the last window averaged 5s of handler latency: the hint
	// must still cap at 1s — a shed is "come back soon", not "go away".
	s.mu.Lock()
	s.lastAvg = 5 * time.Second
	s.mu.Unlock()
	tok, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("admit refused")
	}
	defer s.Done(tok)
	_, hint, ok := s.Admit(1)
	if ok {
		t.Fatal("admitted past limit 1")
	}
	if hint != time.Second {
		t.Errorf("hint = %v, want capped at 1s", hint)
	}
}

func TestShedderPriorities(t *testing.T) {
	classify := func(op uint8) Priority {
		switch op {
		case 1:
			return PriorityForeground
		case 2:
			return PriorityBackground
		default:
			return PriorityControl
		}
	}
	s := NewShedder(ShedPolicy{MinLimit: 4, MaxLimit: 4, BackgroundFraction: 0.5, Classify: classify})

	// Background gets only BackgroundFraction of the limit: 2 of 4.
	b1, _, ok := s.Admit(2)
	if !ok {
		t.Fatal("background admit 1 refused")
	}
	b2, _, ok := s.Admit(2)
	if !ok {
		t.Fatal("background admit 2 refused")
	}
	if _, _, ok := s.Admit(2); ok {
		t.Fatal("background admitted past its fraction of the limit")
	}
	// Foreground still has the full limit (the two background slots count
	// against it).
	f1, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("foreground admit refused with slack left")
	}
	f2, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("foreground admit refused at the limit boundary")
	}
	if _, _, ok := s.Admit(1); ok {
		t.Fatal("foreground admitted past the limit")
	}
	// Control is admitted precisely when the node is saturated, and never
	// counted against the limit.
	c, _, ok := s.Admit(9)
	if !ok {
		t.Fatal("control traffic shed at saturation — probes would read as node death")
	}
	if got := s.Inflight(); got != 4 {
		t.Errorf("inflight = %d, want 4 (control uncounted)", got)
	}
	s.Done(c)
	if got := s.Inflight(); got != 4 {
		t.Errorf("control Done changed inflight to %d", got)
	}
	for _, tok := range []ShedToken{b1, b2, f1, f2} {
		s.Done(tok)
	}
}

// driveWindow pushes one full control window of uniform-latency ops
// through the shedder and rotates it exactly once: four overlapping ops
// share a single clock advance (so a latency above the window length
// cannot rotate mid-batch), then a final op past the window boundary
// triggers the rotation (the loop only turns on traffic).
func driveWindow(t *testing.T, s *Shedder, clk *shedClock, lat time.Duration) {
	t.Helper()
	toks := make([]ShedToken, 0, 4)
	for i := 0; i < 4; i++ {
		tok, _, ok := s.Admit(1)
		if !ok {
			t.Fatal("admit refused by an idle shedder")
		}
		toks = append(toks, tok)
	}
	clk.advance(lat)
	for _, tok := range toks {
		s.Done(tok)
	}
	clk.advance(s.pol.Window)
	tok, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("admit refused by an idle shedder")
	}
	clk.advance(lat)
	s.Done(tok)
}

func TestShedderAIMDCutsOnStandingQueue(t *testing.T) {
	s, clk := clockedShedder(ShedPolicy{
		MinLimit: 8, MaxLimit: 100,
		Target: 5 * time.Millisecond, Window: 100 * time.Millisecond,
	})
	// Two healthy windows establish a ~1ms latency floor.
	driveWindow(t, s, clk, time.Millisecond)
	driveWindow(t, s, clk, time.Millisecond)
	if got := s.Limit(); got != 100 {
		t.Fatalf("limit moved to %d on healthy traffic, want 100", got)
	}
	// 50ms means ~49ms of standing queue over the floor. One bad window
	// is tolerated (a blip), two in a row cut multiplicatively.
	driveWindow(t, s, clk, 50*time.Millisecond)
	if got := s.Limit(); got != 100 {
		t.Fatalf("limit cut after a single bad window: %d", got)
	}
	driveWindow(t, s, clk, 50*time.Millisecond)
	if got := s.Limit(); got != 85 {
		t.Fatalf("limit after sustained queueing = %d, want 100*85%% = 85", got)
	}
	// The run counter reset on the cut: it takes two more bad windows to
	// cut again.
	driveWindow(t, s, clk, 50*time.Millisecond)
	if got := s.Limit(); got != 85 {
		t.Fatalf("limit = %d immediately after cut, want 85", got)
	}
	driveWindow(t, s, clk, 50*time.Millisecond)
	if got := s.Limit(); got != 72 {
		t.Fatalf("second cut: limit = %d, want 85*85%% = 72", got)
	}
}

func TestShedderCutFloorsAtMinLimit(t *testing.T) {
	s, clk := clockedShedder(ShedPolicy{
		MinLimit: 8, MaxLimit: 100,
		Target: 5 * time.Millisecond, Window: 100 * time.Millisecond,
	})
	driveWindow(t, s, clk, time.Millisecond) // floor
	s.limit.Store(9)
	driveWindow(t, s, clk, 50*time.Millisecond)
	driveWindow(t, s, clk, 50*time.Millisecond)
	if got := s.Limit(); got != 8 {
		t.Fatalf("limit = %d, want clamped at MinLimit 8 (9*85%% would be 7)", got)
	}
}

func TestShedderAdditiveIncreaseWhenBoundAndHealthy(t *testing.T) {
	s, clk := clockedShedder(ShedPolicy{
		MinLimit: 2, MaxLimit: 100,
		Target: 5 * time.Millisecond, Window: 100 * time.Millisecond,
	})
	s.limit.Store(20)
	// Saturate: fill every slot, and have one rejection mark the limit as
	// binding this window.
	toks := make([]ShedToken, 0, 20)
	for i := 0; i < 20; i++ {
		tok, _, ok := s.Admit(1)
		if !ok {
			t.Fatalf("admit %d refused under limit 20", i)
		}
		toks = append(toks, tok)
	}
	if _, _, ok := s.Admit(1); ok {
		t.Fatal("admitted past limit 20")
	}
	// Drain with healthy latency and rotate the window.
	clk.advance(time.Millisecond)
	for _, tok := range toks {
		s.Done(tok)
	}
	clk.advance(s.pol.Window)
	tok, _, ok := s.Admit(1)
	if !ok {
		t.Fatal("admit refused after drain")
	}
	clk.advance(time.Millisecond)
	s.Done(tok)
	// Limit bound + latency at the floor → additive probe: 20 + 20/16.
	if got := s.Limit(); got != 21 {
		t.Fatalf("limit = %d, want additive increase to 21", got)
	}
}

// TestServerShedsPastLimit runs the real server path: with the shedder
// pinned to one concurrent request and the handler blocked, every other
// concurrent Send must come back as ErrOverloaded with a usable
// retry-after hint, and the registry must satisfy the admission
// invariant admits + sheds + expired == frames.
func TestServerShedsPastLimit(t *testing.T) {
	reg := obs.NewRegistry()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := NewServer(func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return p, nil
	})
	sh := NewShedder(ShedPolicy{MinLimit: 1, MaxLimit: 1})
	sh.Instrument(reg)
	srv.SetShedder(sh)
	srv.Instrument(reg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck // exits on Close
	defer srv.Close()

	cli := NewTCP(map[NodeID]string{1: lis.Addr().String()})
	defer cli.Close()

	const n = 8
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cli.Send(context.Background(), 1, 1, []byte("x"))
			results <- err
		}()
	}
	<-entered // exactly one request admitted and running
	for i := 0; i < n-1; i++ {
		err := <-results
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed request %d: err = %v, want ErrOverloaded", i, err)
		}
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("shed request %d: %v is not an *OverloadedError", i, err)
		}
		if oe.RetryAfter < sh.pol.Target || oe.RetryAfter > time.Second {
			t.Errorf("retry-after hint %v outside [Target, 1s]", oe.RetryAfter)
		}
		if ra, ok := RetryAfterOf(err); !ok || ra != oe.RetryAfter {
			t.Errorf("RetryAfterOf = (%v, %v), want (%v, true)", ra, ok, oe.RetryAfter)
		}
	}
	close(release)
	if err := <-results; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}

	frames := reg.CounterValue("transport_srv_frames_total")
	admits := reg.CounterValue("transport_srv_admits_total")
	sheds := reg.CounterValue("transport_srv_shed_total")
	expired := reg.CounterValue("transport_srv_expired_total")
	if admits+sheds+expired != frames {
		t.Errorf("admission invariant broken: admits %d + sheds %d + expired %d != frames %d",
			admits, sheds, expired, frames)
	}
	if admits != 1 || sheds != n-1 || expired != 0 {
		t.Errorf("counters = admits %d / sheds %d / expired %d, want 1 / %d / 0", admits, sheds, expired, n-1)
	}
	if reg.GaugeValue("transport_srv_shed_limit") != 1 {
		t.Errorf("shed limit gauge = %d, want 1", reg.GaugeValue("transport_srv_shed_limit"))
	}
}

// TestServerPropagatesOverloadFromHandler covers the forward chain: a
// handler whose downstream forward was shed returns an OverloadedError,
// and the server must re-encode it as statusOverloaded (hint intact)
// rather than flattening it into a generic remote error — the original
// client sees backpressure end to end. Likewise a handler deadline
// expiry becomes statusExpired.
func TestServerPropagatesOverloadFromHandler(t *testing.T) {
	const hint = 42 * time.Millisecond
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, _ []byte) ([]byte, error) {
		switch op {
		case 1:
			return nil, &OverloadedError{Node: 7, RetryAfter: hint}
		case 2:
			return nil, context.DeadlineExceeded
		default:
			return nil, errors.New("plain handler failure")
		}
	})
	defer stop()
	cli := NewTCP(map[NodeID]string{3: addr})
	defer cli.Close()

	_, err := cli.Send(context.Background(), 3, 1, nil)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("forwarded shed came back as %v, want *OverloadedError", err)
	}
	if oe.RetryAfter != hint {
		t.Errorf("retry-after hint = %v, want %v preserved across the hop", oe.RetryAfter, hint)
	}
	if oe.Node != 3 {
		t.Errorf("overload attributed to node %d, want the answering node 3", oe.Node)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("propagated overload does not match ErrOverloaded")
	}

	_, err = cli.Send(context.Background(), 3, 2, nil)
	var ee *ExpiredError
	if !errors.As(err, &ee) {
		t.Fatalf("handler deadline expiry came back as %v, want *ExpiredError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("ExpiredError does not match context.DeadlineExceeded")
	}

	// Ordinary handler errors still surface as RemoteError.
	_, err = cli.Send(context.Background(), 3, 9, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("plain handler error came back as %v, want *RemoteError", err)
	}
}
