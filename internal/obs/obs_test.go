package obs

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if got := r.CounterValue("x_total"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("CounterValue(missing) = %d, want 0", got)
	}
	if got := r.GaugeValue("g"); got != 4 {
		t.Fatalf("GaugeValue = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	g := r.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should stay 0")
	}
	h := r.Histogram("h")
	h.Observe(5)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	if r.Names() != nil {
		t.Fatal("nil registry should enumerate nothing")
	}
	if err := r.WriteText(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("dual")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perG; j++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_ns").Observe(int64(rng.Intn(1_000_000)))
			}
		}(int64(i))
	}
	wg.Wait()
	if got := r.CounterValue("c_total"); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.GaugeValue("g"); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h_ns").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	s := r.Histogram("h_ns").Snapshot()
	if s.Min < 0 || s.Max >= 1_000_000 || s.Min > s.Max {
		t.Fatalf("snapshot min/max out of range: %+v", s)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// The linear region [0,32) is exact: every value is its own bucket.
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Observe(v)
	}
	for i := 1; i <= 32; i++ {
		q := float64(i) / 32
		want := int64(i - 1)
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// The log-linear layout bounds relative error by 2^-subBits per
	// octave boundary; allow 2x that for midpoint reconstruction.
	const relErr = 2.0 / subBuckets
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform spread over ~6 decades, like latencies.
		v := int64(math.Exp(rng.Float64()*13.8)) + rng.Int63n(100)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.Quantile(q)
		if err := math.Abs(float64(got-exact)) / float64(exact); err > relErr {
			t.Errorf("Quantile(%v) = %d, exact %d, rel err %.4f > %.4f", q, got, exact, err, relErr)
		}
	}
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	if s.Min != samples[0] || s.Max != samples[len(samples)-1] {
		t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, samples[0], samples[len(samples)-1])
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's representative value must map back to that bucket.
	for idx := 0; idx < numBuckets; idx++ {
		v := bucketValue(idx)
		if got := bucketIndex(v); got != idx {
			t.Fatalf("bucketIndex(bucketValue(%d)) = %d", idx, got)
		}
	}
	// And indexing must be monotonic in the sample value.
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 10, 1 << 20, 1 << 40, math.MaxUint64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		if idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		prev = idx
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("negative sample should clamp to 0, got %d", got)
	}
}

func TestWriteTextAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("node_puts_total").Add(3)
	r.Gauge("cluster_down_nodes").Set(1)
	r.Histogram("node_op_ns").Observe(100)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"node_puts_total 3\n",
		"cluster_down_nodes 1\n",
		"node_op_ns_count 1\n",
		"node_op_ns_sum 100\n",
		`node_op_ns{quantile="0.99"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.String() != out {
		t.Fatalf("handler served %d / %q, want 200 / WriteText output", rec.Code, rec.Body.String())
	}
}

func TestExpvarPublish(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second publish must not panic
	s := expvarFunc(r.snapshotJSON).String()
	if !strings.Contains(s, `"c_total":2`) {
		t.Fatalf("expvar JSON missing counter: %s", s)
	}
}
