// Package obs is a dependency-free observability kit for the SDDS
// reproduction: atomic counters and gauges, bounded log-linear latency
// histograms with quantile snapshots, and a registry that renders
// everything as a Prometheus-style text page and as expvar JSON.
//
// The paper's evaluation (ICDE 2006 §5) reasons from measured per-stage
// costs; this package is how the reproduction measures them. Every layer
// (transport, node, WAL, control loops) accepts a *Registry via an
// Instrument method and publishes named instruments into it. Instruments
// are safe for concurrent use: counters and gauges are single atomics,
// histograms are fixed arrays of atomic buckets, and the registry itself
// is a copy-on-read map under a mutex.
//
// Naming convention: `<layer>_<what>_<unit>` in snake_case, where layer
// is one of transport_, node_, wal_, cluster_, detector_, supervisor_;
// counters end in _total, duration histograms in _ns.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op on Add/Inc (so call sites
// in un-instrumented components need no guards beyond a nil metrics
// struct check).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil receiver).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value; it can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value (no-op on a nil receiver).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear, like HDR histograms. Values in
// [0,2^linBits) land in one bucket each (exact); larger values are split
// into octaves of 2^subBits sub-buckets, giving a relative quantile
// error bounded by 2^-subBits (~3% for subBits=5). Buckets are atomic
// uint64 counters, so Observe is lock-free and allocation-free.
const (
	subBits    = 5
	subBuckets = 1 << subBits // 32 sub-buckets per octave
	linBits    = subBits      // linear region covers [0, 32)
	// Octave 0 is the linear region; non-linear octaves run from 1
	// (values in [32,64)) through 64-subBits (top bit set), so the
	// bucket array needs 64-subBits+1 octaves to cover any uint64.
	numOctaves = 64 - subBits + 1
	numBuckets = numOctaves * subBuckets
)

// Histogram records a distribution of non-negative int64 samples
// (typically latencies in nanoseconds). All methods are safe for
// concurrent use and no-ops on a nil receiver. Construct with
// NewHistogram (or via Registry.Histogram); the zero value is not
// usable because min carries a sentinel.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first sample
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns a ready-to-use histogram.
func NewHistogram() *Histogram {
	h := new(Histogram)
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	// Octave = position of the highest set bit above the linear region;
	// mantissa = the subBits bits just below it.
	hi := bits.Len64(v) - 1 // >= subBits here
	octave := hi - subBits + 1
	mantissa := (v >> (uint(hi) - subBits)) & (subBuckets - 1)
	return octave*subBuckets + int(mantissa)
}

// bucketValue returns a representative (midpoint) sample for a bucket.
func bucketValue(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	octave := idx / subBuckets
	mantissa := uint64(idx % subBuckets)
	lo := (uint64(subBuckets) | mantissa) << uint(octave-1)
	width := uint64(1) << uint(octave-1)
	return lo + width/2
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old {
			break
		}
		if h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count         uint64
	Sum           int64
	Min, Max      int64
	P50, P90, P99 int64
	Mean          float64
}

// Snapshot summarizes the histogram. Quantiles are reconstructed from
// bucket midpoints, so they carry the ~2^-subBits relative error bound.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return s
	}
	s.Count = total
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(total)
	quantile := func(q float64) int64 {
		rank := uint64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				v := int64(bucketValue(i))
				if v < s.Min {
					v = s.Min
				}
				if v > s.Max {
					v = s.Max
				}
				return v
			}
		}
		return s.Max
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	return s
}

// Quantile returns the q-quantile (0 < q <= 1) of the observed samples,
// or 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	min, max := h.min.Load(), h.max.Load()
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			v := int64(bucketValue(i))
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}

// Registry holds named instruments. Get-or-create methods are idempotent
// and safe for concurrent use; asking for an existing name with a
// different instrument kind panics (a programming error worth failing
// loudly on).
type Registry struct {
	mu    sync.Mutex
	order []string // registration order for stable exposition
	insts map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]any)}
}

// Counter returns the counter with the given name, creating it if
// needed. Nil-safe: a nil registry returns nil, and nil instruments
// no-op, so components can be instrumented unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate[*Counter](r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate[*Gauge](r, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate[*Histogram](r, name, NewHistogram)
}

func getOrCreate[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.insts[name]; ok {
		t, ok := got.(T)
		if !ok {
			panic(fmt.Sprintf("obs: instrument %q re-registered as a different kind (%T)", name, got))
		}
		return t
	}
	t := mk()
	r.insts[name] = t
	r.order = append(r.order, name)
	return t
}

// Names returns all registered instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// CounterValue returns the value of a counter, or 0 if it does not
// exist (without creating it). Handy for test assertions.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	got := r.insts[name]
	r.mu.Unlock()
	if c, ok := got.(*Counter); ok {
		return c.Value()
	}
	return 0
}

// GaugeValue returns the value of a gauge, or 0 if it does not exist.
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	got := r.insts[name]
	r.mu.Unlock()
	if g, ok := got.(*Gauge); ok {
		return g.Value()
	}
	return 0
}

// HistogramSnapshot returns a snapshot of a histogram, or the zero
// snapshot if it does not exist.
func (r *Registry) HistogramSnapshot(name string) HistogramSnapshot {
	if r == nil {
		return HistogramSnapshot{}
	}
	r.mu.Lock()
	got := r.insts[name]
	r.mu.Unlock()
	if h, ok := got.(*Histogram); ok {
		return h.Snapshot()
	}
	return HistogramSnapshot{}
}
