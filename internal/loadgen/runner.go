package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// RunnerConfig tunes the open-loop scheduler.
type RunnerConfig struct {
	// Rate is the target mean arrival rate in ops/second (Poisson
	// arrivals: exponential gaps). Required, > 0.
	Rate float64
	// MaxInFlight bounds concurrently executing ops (default 64).
	MaxInFlight int
	// MaxQueue bounds ops waiting for an in-flight slot (default
	// 4*MaxInFlight). Arrivals beyond it are shed and counted — an
	// overloaded target shows up as sheds and inflated latencies, never
	// as a silently reduced offered rate.
	MaxQueue int
	// Seed drives the arrival-time jitter (independent of the stream's
	// op content).
	Seed int64
	// OpTimeout is the per-operation context deadline (default 30s).
	OpTimeout time.Duration
	// IsRejected classifies an op error as a server-side overload
	// rejection (a target-specific sentinel, matched with errors.Is). Rejected
	// ops are counted separately from errors and excluded from the
	// latency histograms: a shedding server is the overload design
	// working, not the cluster failing, and it must not be conflated
	// with either client-queue sheds or real errors. nil: no ops are
	// classified as rejected.
	IsRejected func(error) bool
	// Clock defaults to the wall clock; tests inject a FakeClock.
	Clock clock.Clock
}

func (c *RunnerConfig) fillDefaults() {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// opAgg accumulates one op kind's outcomes.
type opAgg struct {
	hist     *obs.Histogram
	count    atomic.Uint64
	errors   atomic.Uint64
	skipped  atomic.Uint64
	rejected atomic.Uint64
	firstErr atomic.Value // string
}

// secAgg accumulates one timeline second.
type secAgg struct {
	issued, done, errors, shed, rejected uint64
	hist                                 *obs.Histogram
}

// Runner executes a Stream against a Target with open-loop pacing.
//
// The dispatcher draws Poisson arrival times and hands each op to a
// goroutine at its scheduled instant; the goroutine waits for one of
// MaxInFlight slots and executes. Latency is measured from the
// *scheduled* arrival to completion, so time spent waiting for a slot
// (back-pressure from a slow cluster) is part of the recorded latency —
// the coordinated-omission-safe discipline of open-loop harnesses.
type Runner struct {
	target Target
	cfg    RunnerConfig

	ledger *Ledger
	ops    map[OpKind]*opAgg
	shed   atomic.Uint64

	tlMu sync.Mutex
	tl   map[int]*secAgg
}

// NewRunner builds a runner; cfg.Rate must be positive.
func NewRunner(target Target, cfg RunnerConfig) (*Runner, error) {
	if cfg.Rate <= 0 {
		return nil, errors.New("loadgen: runner needs a positive rate")
	}
	cfg.fillDefaults()
	r := &Runner{
		target: target,
		cfg:    cfg,
		ledger: NewLedger(),
		ops:    make(map[OpKind]*opAgg),
		tl:     make(map[int]*secAgg),
	}
	for _, k := range []OpKind{OpInsert, OpSearch, OpDelete} {
		r.ops[k] = &opAgg{hist: obs.NewHistogram()}
	}
	return r, nil
}

// Ledger exposes the acknowledgement ledger (for the post-run audit).
func (r *Runner) Ledger() *Ledger { return r.ledger }

// RunResult is a completed run's raw measurements.
type RunResult struct {
	Start   time.Time
	Elapsed time.Duration
	Ops     map[string]OpStats
	Shed    uint64
	// Timeline is the per-second view: offered/completed ops, errors,
	// sheds, and that second's p99, ordered by offset. Split storms
	// show up as localized latency spikes here.
	Timeline []Second
	Ledger   *Ledger
}

// Run consumes the stream to exhaustion (or ctx cancellation, which
// stops dispatching but drains in-flight ops) and returns the
// measurements.
func (r *Runner) Run(ctx context.Context, stream *Stream) (*RunResult, error) {
	clk := r.cfg.Clock
	start := clk.Now()
	next := start
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	sem := make(chan struct{}, r.cfg.MaxInFlight)
	var queued atomic.Int64
	var wg sync.WaitGroup

	for ctx.Err() == nil {
		op, ok := stream.Next()
		if !ok {
			break
		}
		gap := time.Duration(rng.ExpFloat64() / r.cfg.Rate * float64(time.Second))
		next = next.Add(gap)
		if d := next.Sub(clk.Now()); d > 0 {
			<-clk.After(d)
		}
		sched := next
		slot := int(sched.Sub(start) / time.Second)
		if queued.Load() >= int64(r.cfg.MaxQueue) {
			r.shed.Add(1)
			r.second(slot, func(s *secAgg) { s.issued++; s.shed++ })
			continue
		}
		r.second(slot, func(s *secAgg) { s.issued++ })
		queued.Add(1)
		wg.Add(1)
		go func(op Op, sched time.Time) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			queued.Add(-1)
			err, skipped := r.execute(ctx, op)
			now := clk.Now()
			lat := now.Sub(sched)
			agg := r.ops[op.Kind]
			if skipped {
				agg.skipped.Add(1)
				return
			}
			if err != nil && r.cfg.IsRejected != nil && r.cfg.IsRejected(err) {
				agg.rejected.Add(1)
				r.second(int(now.Sub(start)/time.Second), func(s *secAgg) { s.rejected++ })
				return
			}
			agg.count.Add(1)
			agg.hist.Observe(int64(lat))
			if err != nil {
				agg.errors.Add(1)
				agg.firstErr.CompareAndSwap(nil, err.Error())
			}
			done := int(now.Sub(start) / time.Second)
			r.second(done, func(s *secAgg) {
				s.done++
				if err != nil {
					s.errors++
				}
				if s.hist == nil {
					s.hist = obs.NewHistogram()
				}
				s.hist.Observe(int64(lat))
			})
		}(op, sched)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)
	return r.result(start, elapsed), ctx.Err()
}

// execute performs one op and updates the ledger with its acknowledged
// outcome. skipped deletes (target record not acknowledged live) are
// not sent and not measured.
func (r *Runner) execute(ctx context.Context, op Op) (err error, skipped bool) {
	opCtx, cancel := context.WithTimeout(ctx, r.cfg.OpTimeout)
	defer cancel()
	switch op.Kind {
	case OpInsert:
		r.ledger.MarkPending(op.RID)
		err = r.target.Insert(opCtx, op.RID, op.Content)
		if err == nil {
			r.ledger.MarkLive(op.RID)
		} else {
			r.ledger.MarkFailed(op.RID)
		}
	case OpSearch:
		_, err = r.target.Search(opCtx, op.Query)
	case OpDelete:
		if !r.ledger.BeginDelete(op.RID) {
			return nil, true
		}
		err = r.target.Delete(opCtx, op.RID)
		if err == nil {
			r.ledger.MarkDeleted(op.RID)
		} else {
			r.ledger.MarkUncertain(op.RID)
		}
	}
	return err, false
}

func (r *Runner) second(slot int, fn func(*secAgg)) {
	if slot < 0 {
		slot = 0
	}
	r.tlMu.Lock()
	s := r.tl[slot]
	if s == nil {
		s = &secAgg{}
		r.tl[slot] = s
	}
	fn(s)
	r.tlMu.Unlock()
}

func (r *Runner) result(start time.Time, elapsed time.Duration) *RunResult {
	res := &RunResult{
		Start:   start,
		Elapsed: elapsed,
		Ops:     make(map[string]OpStats, len(r.ops)),
		Shed:    r.shed.Load(),
		Ledger:  r.ledger,
	}
	for kind, agg := range r.ops {
		if agg.count.Load() == 0 && agg.skipped.Load() == 0 && agg.rejected.Load() == 0 {
			continue
		}
		st := opStatsFromHistogram(agg.hist, agg.count.Load(), agg.errors.Load(), agg.skipped.Load())
		st.Rejected = agg.rejected.Load()
		if msg, ok := agg.firstErr.Load().(string); ok {
			st.FirstError = msg
		}
		res.Ops[kind.String()] = st
	}
	r.tlMu.Lock()
	slots := make([]int, 0, len(r.tl))
	for s := range r.tl {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		agg := r.tl[slot]
		sec := Second{
			Offset:   slot,
			Issued:   agg.issued,
			Done:     agg.done,
			Errors:   agg.errors,
			Shed:     agg.shed,
			Rejected: agg.rejected,
		}
		if agg.hist != nil {
			snap := agg.hist.Snapshot()
			sec.P50Ns = snap.P50
			sec.P99Ns = snap.P99
			sec.MaxNs = snap.Max
		}
		res.Timeline = append(res.Timeline, sec)
	}
	r.tlMu.Unlock()
	return res
}
