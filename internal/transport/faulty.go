package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// Fault injection errors. Both are transport-level failures: the
// request never reached the node, so the caller may safely re-run it.
var (
	// ErrInjectedDrop reports a request discarded by a Faulty transport
	// before delivery — the network "ate" the message.
	ErrInjectedDrop = errors.New("transport: injected drop")
	// ErrInjectedFault reports a synthetic transport error (e.g. a reset
	// connection) injected by a Faulty transport.
	ErrInjectedFault = errors.New("transport: injected fault")
	// ErrNodeDown reports a send to a node currently under blackout — the
	// Faulty model of a crashed or partitioned site.
	ErrNodeDown = errors.New("transport: node down")
)

// Fault is one node's failure schedule: independent probabilities drawn
// per request from the node's seeded stream. All faults act on the
// request path (before delivery), so re-run requests are always safe —
// a dropped request was never executed. Duplicate delivery executes the
// request twice and returns the first response, modeling a duplicated
// message on an idempotent operation.
type Fault struct {
	// Drop is the probability the request is silently discarded
	// (ErrInjectedDrop after any injected delay).
	Drop float64
	// Fail is the probability of a synthetic transport error
	// (ErrInjectedFault).
	Fail float64
	// Dup is the probability the request is delivered twice; the first
	// response wins. Only meaningful for idempotent ops.
	Dup float64
	// DelayProb is the probability a request is delayed by Delay (on the
	// Faulty's clock) before anything else happens. The delay respects
	// context cancellation.
	DelayProb float64
	// Delay is the injected latency when DelayProb fires.
	Delay time.Duration
}

// FaultStats counts what a Faulty transport did to one node's traffic.
type FaultStats struct {
	Node       NodeID
	Sends      uint64 // requests seen (including faulted ones)
	Dropped    uint64
	Failed     uint64
	Delayed    uint64
	Duplicated uint64
	Blacked    uint64 // requests rejected by blackout
}

// Faulty wraps a Transport and injects seeded, deterministic failures
// according to per-node fault schedules. Each node has its own random
// stream derived from the seed, so the fault decisions a node's request
// sequence sees are reproducible even when requests to different nodes
// interleave (as in Broadcast).
type Faulty struct {
	inner Transport
	seed  int64
	clk   clock.Clock

	mu    sync.Mutex
	def   Fault
	per   map[NodeID]Fault
	black map[NodeID]bool
	rngs  map[NodeID]*rand.Rand
	stats map[NodeID]*FaultStats

	met faultyMetrics // set by Instrument before traffic; nil-safe
}

// NewFaulty wraps a transport with a fault injector whose delays run on
// clk. With no schedule set it is transparent.
func NewFaulty(inner Transport, seed int64, clk clock.Clock) *Faulty {
	return &Faulty{
		inner: inner,
		seed:  seed,
		clk:   clk,
		per:   make(map[NodeID]Fault),
		black: make(map[NodeID]bool),
		rngs:  make(map[NodeID]*rand.Rand),
		stats: make(map[NodeID]*FaultStats),
	}
}

// SetDefault installs the fault schedule applied to every node without
// a per-node override.
func (f *Faulty) SetDefault(fault Fault) {
	f.mu.Lock()
	f.def = fault
	f.mu.Unlock()
}

// SetFault installs a per-node fault schedule, overriding the default.
func (f *Faulty) SetFault(node NodeID, fault Fault) {
	f.mu.Lock()
	f.per[node] = fault
	f.mu.Unlock()
}

// ClearFaults removes every schedule (default and overrides), leaving
// blackouts in place.
func (f *Faulty) ClearFaults() {
	f.mu.Lock()
	f.def = Fault{}
	f.per = make(map[NodeID]Fault)
	f.mu.Unlock()
}

// Blackout makes the listed nodes unreachable (every send fails with
// ErrNodeDown) until Restore — a crashed site or a network partition
// seen from this transport's side.
func (f *Faulty) Blackout(nodes ...NodeID) {
	f.mu.Lock()
	for _, n := range nodes {
		f.black[n] = true
	}
	f.mu.Unlock()
}

// Restore lifts the blackout from the listed nodes.
func (f *Faulty) Restore(nodes ...NodeID) {
	f.mu.Lock()
	for _, n := range nodes {
		delete(f.black, n)
	}
	f.mu.Unlock()
}

// Stats returns a copy of the per-node fault counters, sorted by node.
func (f *Faulty) Stats() []FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FaultStats, 0, len(f.stats))
	for _, s := range f.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (f *Faulty) statsOf(node NodeID) *FaultStats {
	s, ok := f.stats[node]
	if !ok {
		s = &FaultStats{Node: node}
		f.stats[node] = s
	}
	return s
}

// rngOf returns the node's private random stream. Per-node streams keep
// fault decisions deterministic per node even when Broadcast interleaves
// requests to many nodes in arbitrary goroutine order.
func (f *Faulty) rngOf(node NodeID) *rand.Rand {
	r, ok := f.rngs[node]
	if !ok {
		r = rand.New(rand.NewSource(f.seed ^ (int64(node)+1)*0x1e3779b97f4a7c15))
		f.rngs[node] = r
	}
	return r
}

// decision is one request's drawn fate.
type decision struct {
	delay time.Duration
	drop  bool
	fail  bool
	dup   bool
}

// Send implements Transport.
func (f *Faulty) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	st := f.statsOf(node)
	st.Sends++
	f.met.sends.Inc()
	if f.black[node] {
		st.Blacked++
		f.met.blacked.Inc()
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNodeDown, node)
	}
	fault, ok := f.per[node]
	if !ok {
		fault = f.def
	}
	var d decision
	rng := f.rngOf(node)
	// Draw every probability in a fixed order so a schedule change does
	// not shift the stream for unrelated fault kinds.
	if fault.DelayProb > 0 && rng.Float64() < fault.DelayProb {
		d.delay = fault.Delay
		st.Delayed++
		f.met.delayed.Inc()
	}
	if fault.Drop > 0 && rng.Float64() < fault.Drop {
		d.drop = true
		st.Dropped++
		f.met.dropped.Inc()
	}
	if fault.Fail > 0 && rng.Float64() < fault.Fail {
		d.fail = true
		st.Failed++
		f.met.failed.Inc()
	}
	if fault.Dup > 0 && rng.Float64() < fault.Dup {
		d.dup = true
		st.Duplicated++
		f.met.duplicated.Inc()
	}
	f.mu.Unlock()

	if d.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-f.clk.After(d.delay):
		}
	}
	if d.drop {
		return nil, fmt.Errorf("%w: request to node %d", ErrInjectedDrop, node)
	}
	if d.fail {
		return nil, fmt.Errorf("%w: request to node %d", ErrInjectedFault, node)
	}
	resp, err := f.inner.Send(ctx, node, op, payload)
	if d.dup && err == nil {
		// Duplicate delivery: the node executes the request again; the
		// duplicate's response is discarded.
		f.inner.Send(ctx, node, op, payload) //nolint:errcheck // duplicate outcome is irrelevant
	}
	return resp, err
}

// Nodes implements Transport. Blacked-out nodes stay listed: membership
// is directory knowledge, reachability is not.
func (f *Faulty) Nodes() []NodeID { return f.inner.Nodes() }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }
