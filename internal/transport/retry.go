package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ErrCircuitOpen reports a send rejected without any network attempt
// because the target node's circuit breaker is open (too many
// consecutive failures; the node is presumed down until the cooldown
// elapses).
var ErrCircuitOpen = errors.New("transport: circuit open")

// RetryPolicy tunes the Retry middleware.
type RetryPolicy struct {
	// MaxAttempts bounds total delivery attempts per Send (>= 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// Multiplier is the exponential backoff factor (default 2).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction (0..1) of its
	// value, decorrelating retry storms across clients.
	Jitter float64
	// FailureThreshold opens a node's circuit breaker after this many
	// consecutive failed attempts (0 disables the breaker).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects sends before letting
	// a probe through.
	Cooldown time.Duration
}

// DefaultRetryPolicy returns the stock policy: 4 attempts, 10ms–1s
// exponential backoff with 20% jitter, breaker at 8 consecutive
// failures with a 1s cooldown.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      4,
		BaseDelay:        10 * time.Millisecond,
		MaxDelay:         time.Second,
		Multiplier:       2,
		Jitter:           0.2,
		FailureThreshold: 8,
		Cooldown:         time.Second,
	}
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
}

// Retryable classifies an error as a transport-level failure worth
// retrying. Handler errors (RemoteError) reached the node and must not
// be replayed blindly; context errors mean the caller gave up; unknown
// nodes and open breakers cannot be cured by resending. An
// ExpiredError is not retryable either — it matches
// context.DeadlineExceeded, because the caller's deadline is what
// expired.
func Retryable(err error) bool {
	var re *RemoteError
	switch {
	case err == nil:
		return false
	case errors.As(err, &re):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, ErrUnknownNode):
		return false
	case errors.Is(err, ErrCircuitOpen):
		return false
	}
	return true
}

// NodeStats is one node's health accounting under the Retry middleware.
type NodeStats struct {
	Node                NodeID
	Sends               uint64 // Send calls (not attempts)
	Successes           uint64
	Failures            uint64 // failed attempts
	Retries             uint64 // attempts beyond the first
	BreakerTrips        uint64
	ConsecutiveFailures int
	BreakerOpen         bool
}

type nodeHealth struct {
	NodeStats
	openUntil time.Time
}

// SendObserver receives the outcome of every delivery attempt a Retry
// makes — the passive half of failure detection. err is nil when the
// node answered (including with a handler error, which proves it
// alive); attempts the middleware never made (open breaker) and
// caller-side context expiry are not reported, since they carry no
// evidence about the node.
type SendObserver interface {
	ObserveSend(node NodeID, err error)
}

// Retry is a Transport middleware adding exponential-backoff retries
// with jitter, context-deadline awareness, and a per-node circuit
// breaker with health accounting.
type Retry struct {
	inner  Transport
	policy RetryPolicy

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[NodeID]*nodeHealth
	now      func() time.Time // injectable clock for tests
	observer SendObserver

	met retryMetrics // set by Instrument before traffic; nil-safe
}

// NewRetry wraps a transport with the retry/breaker middleware. The
// seed drives jitter only; it never changes which attempts happen.
func NewRetry(inner Transport, policy RetryPolicy, seed int64) *Retry {
	policy.fillDefaults()
	return &Retry{
		inner:  inner,
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  make(map[NodeID]*nodeHealth),
		now:    time.Now,
	}
}

// Policy returns the effective policy (defaults filled).
func (r *Retry) Policy() RetryPolicy { return r.policy }

// SetObserver installs a per-attempt outcome observer (typically a
// Detector, to fold live-traffic evidence into failure detection).
// Passing nil removes it.
func (r *Retry) SetObserver(o SendObserver) {
	r.mu.Lock()
	r.observer = o
	r.mu.Unlock()
}

// observe reports one attempt's outcome to the observer, outside the
// lock (observers may call back into this transport).
func (r *Retry) observe(node NodeID, err error) {
	r.mu.Lock()
	o := r.observer
	r.mu.Unlock()
	if o == nil {
		return
	}
	// An expired response proves the node alive — it read our frame and
	// answered. Check before the context-error cases: an ExpiredError
	// matches context.DeadlineExceeded, but unlike a true caller-side
	// expiry it IS evidence about the node, and it must land as an
	// up-signal, not be discarded (or worse, a saturated-but-healthy node
	// would drift into suspicion).
	if answeredExpired(err) {
		o.ObserveSend(node, nil)
		return
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return // the caller gave up; says nothing about the node
	case errors.Is(err, ErrCircuitOpen):
		return // no attempt was made
	}
	var re *RemoteError
	if errors.As(err, &re) {
		err = nil // the node answered; it is alive
	}
	o.ObserveSend(node, err)
}

func (r *Retry) healthOf(node NodeID) *nodeHealth {
	h, ok := r.nodes[node]
	if !ok {
		h = &nodeHealth{NodeStats: NodeStats{Node: node}}
		r.nodes[node] = h
	}
	return h
}

// backoff returns the pause before retry number n (n >= 1), jittered.
// Caller holds the lock (the rng is not goroutine-safe).
func (r *Retry) backoff(n int) time.Duration {
	d := float64(r.policy.BaseDelay)
	for i := 1; i < n; i++ {
		d *= r.policy.Multiplier
		if d >= float64(r.policy.MaxDelay) {
			break
		}
	}
	if d > float64(r.policy.MaxDelay) {
		d = float64(r.policy.MaxDelay)
	}
	if r.policy.Jitter > 0 {
		d *= 1 + r.policy.Jitter*(2*r.rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Send implements Transport: attempts the request up to MaxAttempts
// times, backing off between attempts. On exhaustion the returned error
// wraps the last underlying failure, so errors.Is/As still see the real
// cause rather than a synthetic timeout.
func (r *Retry) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.met.sends.Inc()
	start := time.Now()
	defer func() { r.met.sendNS.Observe(time.Since(start).Nanoseconds()) }()
	r.mu.Lock()
	h := r.healthOf(node)
	h.Sends++
	if r.policy.FailureThreshold > 0 && h.openUntil.After(r.now()) {
		until := h.openUntil
		r.mu.Unlock()
		r.met.breakerRejects.Inc()
		return nil, fmt.Errorf("%w: node %d until %s", ErrCircuitOpen, node, until.Format(time.RFC3339Nano))
	}
	r.mu.Unlock()

	var last error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.mu.Lock()
			h.Retries++
			pause := r.backoff(attempt - 1)
			r.mu.Unlock()
			r.met.retries.Inc()
			r.met.backoffNS.Observe(pause.Nanoseconds())
			if err := sleepCtx(ctx, pause); err != nil {
				// The caller's deadline expired while we were backing
				// off; surface the real failure, not the timeout.
				return nil, fmt.Errorf("transport: giving up on node %d after %d attempts (%v): %w",
					node, attempt-1, err, last)
			}
		}
		r.met.attempts.Inc()
		resp, err := r.inner.Send(ctx, node, op, payload)
		r.observe(node, err)
		if err == nil {
			r.met.successes.Inc()
			r.mu.Lock()
			h.Successes++
			h.ConsecutiveFailures = 0
			h.openUntil = time.Time{}
			h.BreakerOpen = false
			r.mu.Unlock()
			return resp, nil
		}
		last = err
		r.met.failures.Inc()
		// An expired response is not node failure: it comes from a live
		// node that answered too late to matter, so it never feeds the
		// breaker's consecutive-failure count (a saturated cluster with a
		// tripped-open breaker would turn brown-out into black-out).
		r.recordFailure(h, !answeredExpired(err))
		if !Retryable(err) {
			return nil, err
		}
	}
	r.met.exhausted.Inc()
	return nil, fmt.Errorf("transport: %d attempts to node %d failed: %w",
		r.policy.MaxAttempts, node, last)
}

func (r *Retry) recordFailure(h *nodeHealth, breaker bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h.Failures++
	if !breaker {
		return
	}
	h.ConsecutiveFailures++
	if r.policy.FailureThreshold > 0 && h.ConsecutiveFailures >= r.policy.FailureThreshold && !h.openUntil.After(r.now()) {
		h.openUntil = r.now().Add(r.policy.Cooldown)
		h.BreakerOpen = true
		h.BreakerTrips++
		r.met.breakerTrips.Inc()
	}
}

// Stats returns a copy of every node's health counters, sorted by node.
func (r *Retry) Stats() []NodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStats, 0, len(r.nodes))
	for _, h := range r.nodes {
		s := h.NodeStats
		s.BreakerOpen = r.policy.FailureThreshold > 0 && h.openUntil.After(r.now())
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// NodeStats returns one node's health counters.
func (r *Retry) NodeStats(node NodeID) NodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.nodes[node]
	if !ok {
		return NodeStats{Node: node}
	}
	s := h.NodeStats
	s.BreakerOpen = r.policy.FailureThreshold > 0 && h.openUntil.After(r.now())
	return s
}

// ResetBreaker force-closes a node's breaker — call it after recovering
// a failed node so traffic resumes immediately instead of waiting out
// the cooldown.
func (r *Retry) ResetBreaker(node NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.healthOf(node)
	h.ConsecutiveFailures = 0
	h.openUntil = time.Time{}
	h.BreakerOpen = false
}

// Nodes implements Transport.
func (r *Retry) Nodes() []NodeID { return r.inner.Nodes() }

// Close implements Transport.
func (r *Retry) Close() error { return r.inner.Close() }
