package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/esdds"
)

// Load shape shared by every workload (README, "Sizing rules").
const (
	nodes    = 3
	workers  = 2 // closed-loop client goroutines of an end-to-end run
	maxProcs = 2
	// Set-ups per run; setup_s is their median. Every run makes minSetups,
	// and goes on to maxSetups while they have taken less than quickSetups
	// together.
	minSetups   = 3
	maxSetups   = 21
	quickSetups = 500 * time.Millisecond
	warmups     = 2 // throw-away clusters that run the timed streams for warmupEach
	warmupEach  = time.Second
	// traceShare is the part of the end-to-end op count a traced run issues
	// (twice: once untraced at one worker, once traced).
	traceShare = 0.4
)

// storeConfig is the scheme the README advertises. No Stage-2 codebook, so
// internal/encode does no work here.
var storeConfig = esdds.Config{
	ChunkSize:       4,
	Chunkings:       2,
	DispersionSites: 2,
	Matrix:          esdds.MatrixRandom,
	MaxBucketLoad:   512,
}

const passphrase = "benchmark"

// kv is the Store surface the workloads drive; *esdds.Store and the traced
// mirror both provide it.
type kv interface {
	Insert(ctx context.Context, rid uint64, content []byte) error
	Search(ctx context.Context, substring []byte, mode esdds.SearchMode) ([]uint64, error)
	Delete(ctx context.Context, rid uint64) error
	Get(ctx context.Context, rid uint64) ([]byte, error)
}

// stack is one running cluster with a store opened on it.
type stack struct {
	store kv
	close func() error
	// restart closes the cluster, reopens it over the same data dir and
	// reports how each node's state came back. Durable stacks only.
	restart func() (outcomes []string, err error)
}

// openStack starts the untraced system through the public API only:
// three in-process nodes behind loopback sockets, wire v2, pooled client.
func openStack(dataDir string) (*stack, error) {
	open := func() (*esdds.Cluster, *esdds.Store, error) {
		var opts []esdds.ClusterOption
		if dataDir != "" {
			opts = append(opts, esdds.WithDataDir(dataDir))
		}
		c, err := esdds.StartLocalTCPCluster(nodes, opts...)
		if err != nil {
			return nil, nil, err
		}
		st, err := esdds.Open(c, esdds.KeyFromPassphrase(passphrase), storeConfig, nil)
		if err != nil {
			c.Close() //nolint:errcheck // unwinding a failed open
			return nil, nil, err
		}
		return c, st, nil
	}
	c, st, err := open()
	if err != nil {
		return nil, err
	}
	s := &stack{store: st}
	s.close = func() error { return c.Close() }
	if dataDir != "" {
		s.restart = func() ([]string, error) {
			if err := c.Close(); err != nil {
				return nil, err
			}
			if c, st, err = open(); err != nil {
				return nil, err
			}
			s.store = st
			out := make([]string, nodes)
			for i := range out {
				rec, _ := c.NodeRecovery(i)
				out[i] = rec.Outcome
			}
			return out, nil
		}
	}
	return s, nil
}

// phase is what one pass over a set of streams measured. lat[w][i] is the
// latency in ns of op i of stream w, or -1 if it failed or never ran;
// end[w][i] is when it returned, in ns since the pass started.
type phase struct {
	streams  [][]op
	lat, end [][]int64
	elapsed  time.Duration
	done     int
	errs     int
	firstErr error
}

// slices is how many equal parts opsPerSec cuts each stream into.
const slices = 10

// opsPerSec is the pass's throughput as the median over ten slices: each
// worker's stream is cut into ten equal parts, a slice's rate is the sum of
// the workers' rates over their part, and the median slice stands for the
// pass. A stall that hits one slice (a GC cycle, a noisy neighbour, a
// checkpoint) moves the mean of the whole pass but not this.
func (p *phase) opsPerSec() float64 {
	if p.done < slices*len(p.streams) {
		return p.meanOpsPerSec()
	}
	rates := make([]float64, slices)
	for _, end := range p.end {
		n := len(end)
		for k := 0; k < slices; k++ {
			lo, hi := k*n/slices, (k+1)*n/slices
			var from int64
			if lo > 0 {
				from = end[lo-1]
			}
			rates[k] += float64(hi-lo) / (float64(end[hi-1]-from) / 1e9)
		}
	}
	return median(rates)
}

func (p *phase) meanOpsPerSec() float64 { return float64(p.done) / p.elapsed.Seconds() }

// quantiles returns p50 and p99 in microseconds over the completed ops that
// keep accepts, and how many there were.
func (p *phase) quantiles(keep func(op) bool) (p50, p99 float64, n int) {
	var l []int64
	for w, ops := range p.streams {
		for i, ns := range p.lat[w] {
			if ns >= 0 && keep(ops[i]) {
				l = append(l, ns)
			}
		}
	}
	if len(l) == 0 {
		return 0, 0, 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return float64(l[len(l)/2]) / 1e3, float64(l[len(l)*99/100]) / 1e3, len(l)
}

func ofKind(k opKind) func(op) bool { return func(o op) bool { return o.kind == k } }

// runPhase drives the store closed-loop: one goroutine per stream, each
// issuing its next op when the previous one returned. A non-zero limit
// stops the pass early (warm-up).
func runPhase(st kv, in *inputs, streams [][]op, limit time.Duration) *phase {
	p := &phase{streams: streams, lat: make([][]int64, len(streams)), end: make([][]int64, len(streams))}
	errs := make([]error, len(streams))
	for w := range streams {
		// Sized up front so the timed loop never allocates for bookkeeping.
		p.lat[w] = make([]int64, len(streams[w]))
		p.end[w] = make([]int64, len(streams[w]))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for w := range streams {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat, end := p.lat[w], p.end[w]
			for i, o := range streams[w] {
				t0 := time.Now()
				if limit > 0 && t0.Sub(start) > limit {
					for ; i < len(lat); i++ {
						lat[i] = -1
					}
					return
				}
				var err error
				switch o.kind {
				case opInsert:
					err = st.Insert(ctx, in.rids[o.arg], in.content[o.arg])
				case opSearch:
					_, err = st.Search(ctx, in.queries[o.arg], esdds.SearchFast)
				case opDelete:
					err = st.Delete(ctx, in.rids[o.arg])
				case opGet:
					_, err = st.Get(ctx, in.rids[o.arg])
				}
				t1 := time.Now()
				lat[i], end[i] = t1.Sub(t0).Nanoseconds(), t1.Sub(start).Nanoseconds()
				if err != nil {
					lat[i] = -1
					if errs[w] == nil {
						errs[w] = fmt.Errorf("%s: %w", kindNames[o.kind], err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for w := range streams {
		for _, ns := range p.lat[w] {
			if ns >= 0 {
				p.done++
			} else if limit == 0 {
				p.errs++
			}
		}
		if p.firstErr == nil {
			p.firstErr = errs[w]
		}
	}
	return p
}

// workDirs hands out fresh data directories under the run's scratch root
// and removes them all at the end.
type workDirs struct {
	root string
	n    int
}

func (d *workDirs) next() (string, error) {
	d.n++
	dir := filepath.Join(d.root, fmt.Sprintf("data-%d", d.n))
	return dir, os.MkdirAll(dir, 0o755)
}

func (d *workDirs) cleanup() { os.RemoveAll(d.root) } //nolint:errcheck // scratch

// setUp performs everything before the timed phase — input generation,
// cluster start, preload — and reports how long it took.
func setUp(s spec, seed int64, nWorkers int, dirs *workDirs, open func(dataDir string) (*stack, error)) (*inputs, *stack, *phase, time.Duration, error) {
	t0 := time.Now()
	in, err := generate(s, seed, nWorkers)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	dataDir := ""
	if s.durable {
		if dataDir, err = dirs.next(); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	st, err := open(dataDir)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	pre := runPhase(st.store, in, in.preload, 0)
	if pre.errs > 0 {
		st.close() //nolint:errcheck // unwinding a failed preload
		return nil, nil, nil, 0, fmt.Errorf("preload: %d ops failed, first: %w", pre.errs, pre.firstErr)
	}
	return in, st, pre, time.Since(t0), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
