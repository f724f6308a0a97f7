package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// BenchSchema identifies the BENCH_cluster.json layout.
const BenchSchema = "esdds-soak/v1"

// OpStats summarizes one op kind's client-side outcomes. Latencies are
// end-to-end nanoseconds measured from scheduled arrival (coordinated-
// omission-safe).
type OpStats struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// Rejected counts ops the server refused with an overload rejection.
	// They are not in Count,
	// not in Errors, and not in the latency quantiles: a load-shedding
	// server degrading gracefully is accounted as backpressure, not
	// failure.
	Rejected   uint64  `json:"rejected,omitempty"`
	Skipped    uint64  `json:"skipped,omitempty"`
	ErrorRate  float64 `json:"error_rate"`
	P50Ns      int64   `json:"p50_ns"`
	P90Ns      int64   `json:"p90_ns"`
	P99Ns      int64   `json:"p99_ns"`
	MeanNs     float64 `json:"mean_ns"`
	MaxNs      int64   `json:"max_ns"`
	FirstError string  `json:"first_error,omitempty"`
}

func opStatsFromHistogram(h *obs.Histogram, count, errs, skipped uint64) OpStats {
	snap := h.Snapshot()
	st := OpStats{
		Count:   count,
		Errors:  errs,
		Skipped: skipped,
		P50Ns:   snap.P50,
		P90Ns:   snap.P90,
		P99Ns:   snap.P99,
		MeanNs:  snap.Mean,
		MaxNs:   snap.Max,
	}
	if count > 0 {
		st.ErrorRate = float64(errs) / float64(count)
	}
	return st
}

// Second is one per-second timeline entry. Issued counts scheduled
// arrivals in that second; Done/Errors count completions; the quantiles
// are of ops *completing* in that second, which is where a split storm
// appears as a spike.
type Second struct {
	Offset int    `json:"s"`
	Issued uint64 `json:"issued"`
	Done   uint64 `json:"done"`
	Errors uint64 `json:"errors,omitempty"`
	// Shed counts arrivals dropped at the client queue bound; Rejected
	// counts ops refused by server-side admission control.
	Shed     uint64 `json:"shed,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
	P50Ns    int64  `json:"p50_ns,omitempty"`
	P99Ns    int64  `json:"p99_ns,omitempty"`
	MaxNs    int64  `json:"max_ns,omitempty"`
}

// GrowthSample is a per-second snapshot of the cluster's LH* state,
// taken by the harness alongside the latency timeline.
type GrowthSample struct {
	Offset        int    `json:"s"`
	RecordBuckets uint64 `json:"record_buckets"`
	IndexBuckets  uint64 `json:"index_buckets"`
	Splits        int    `json:"splits"`
	IAMs          int    `json:"iams"`
}

// ClusterCounters are the end-of-run cluster-side totals.
type ClusterCounters struct {
	Nodes         int    `json:"nodes"`
	NodesUsed     int    `json:"nodes_used"`
	RecordBuckets uint64 `json:"record_buckets"`
	IndexBuckets  uint64 `json:"index_buckets"`
	RecordSplits  int    `json:"record_splits"`
	IndexSplits   int    `json:"index_splits"`
	IAMs          int    `json:"iams"`
	// Repairs is the self-healing supervisor's completed-repair count
	// (zero without WithSelfHealing). An overload soak gates it at zero:
	// saturation must read as backpressure, never as node death.
	Repairs uint64 `json:"repairs,omitempty"`
	// Alarms counts the supervisor's journal `alarm` records: nodes that
	// came back without their state and stay down. A chaos soak gates
	// it at zero — every repair must be a local journal replay.
	Alarms uint64 `json:"alarms,omitempty"`
	// Migration-ledger counters: every split/merge is a journalled
	// two-phase handoff; Started == Committed + Aborted + InFlight. A
	// chaos soak gates InFlight at zero (every handoff interrupted by a
	// node kill was rolled forward or aborted by the end of the run)
	// and Resumed counts the ones the supervisor had to re-drive.
	MigStarted   uint64 `json:"migrations_started,omitempty"`
	MigCommitted uint64 `json:"migrations_committed,omitempty"`
	MigAborted   uint64 `json:"migrations_aborted,omitempty"`
	MigResumed   uint64 `json:"migrations_resumed,omitempty"`
	MigInFlight  int    `json:"migrations_in_flight,omitempty"`
}

// RunConfig echoes the knobs that produced a report, so a BENCH file
// entry is self-describing and regression diffs compare like with like.
type RunConfig struct {
	Cluster     string  `json:"cluster"`
	Nodes       int     `json:"nodes"`
	Ops         int     `json:"ops"`
	Rate        float64 `json:"rate"`
	Mix         string  `json:"mix"`
	Seed        int64   `json:"seed"`
	ZipfS       float64 `json:"zipf_s"`
	QueryPool   int     `json:"query_pool"`
	MaxInFlight int     `json:"max_in_flight"`
	BucketCap   int     `json:"bucket_cap"`
	SearchMode  string  `json:"search_mode"`
}

// Totals are whole-run aggregates. Shed is client-queue drops,
// Rejected is server-side overload refusals; neither is in Ops.
type Totals struct {
	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	Shed       uint64  `json:"shed"`
	Rejected   uint64  `json:"rejected,omitempty"`
	ErrorRate  float64 `json:"error_rate"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Throughput float64 `json:"throughput"`
	// Goodput is successfully completed ops per second — the overload
	// SLO's "the cluster keeps doing useful work" floor.
	Goodput float64 `json:"goodput"`
}

// Report is one soak run's full record: the BENCH_cluster.json entry
// for its profile.
type Report struct {
	Schema      string             `json:"schema"`
	Profile     string             `json:"profile"`
	When        string             `json:"when,omitempty"`
	Config      RunConfig          `json:"config"`
	Ops         map[string]OpStats `json:"ops"`
	Totals      Totals             `json:"totals"`
	Cluster     ClusterCounters    `json:"cluster"`
	NodeMetrics map[string]float64 `json:"node_metrics,omitempty"`
	Timeline    []Second           `json:"timeline"`
	Growth      []GrowthSample     `json:"growth,omitempty"`
	Audit       *AuditResult       `json:"audit,omitempty"`
	Gates       []GateOutcome      `json:"gates,omitempty"`
}

// BuildReport assembles a report from a run's raw measurements.
func BuildReport(profile string, cfg RunConfig, res *RunResult) *Report {
	rep := &Report{
		Schema:   BenchSchema,
		Profile:  profile,
		Config:   cfg,
		Ops:      res.Ops,
		Timeline: res.Timeline,
	}
	var ops, errs, rejected uint64
	for _, st := range res.Ops {
		ops += st.Count
		errs += st.Errors
		rejected += st.Rejected
	}
	rep.Totals = Totals{
		Ops:        ops,
		Errors:     errs,
		Shed:       res.Shed,
		Rejected:   rejected,
		ElapsedSec: res.Elapsed.Seconds(),
	}
	if ops > 0 {
		rep.Totals.ErrorRate = float64(errs) / float64(ops)
	}
	if rep.Totals.ElapsedSec > 0 {
		rep.Totals.Throughput = float64(ops) / rep.Totals.ElapsedSec
		rep.Totals.Goodput = float64(ops-errs) / rep.Totals.ElapsedSec
	}
	return rep
}

// BenchFile is the on-disk BENCH_cluster.json shape: one report per
// profile, merged across runs so re-running one profile never drops
// another profile's history.
type BenchFile struct {
	Schema   string             `json:"schema"`
	Profiles map[string]*Report `json:"profiles"`
}

// LoadBenchFile reads a BENCH file; a missing file yields an empty one.
// A present-but-unparsable file is an error: history must never be
// silently clobbered.
func LoadBenchFile(path string) (*BenchFile, error) {
	f := &BenchFile{Schema: BenchSchema, Profiles: map[string]*Report{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	if f.Profiles == nil {
		f.Profiles = map[string]*Report{}
	}
	return f, nil
}

// Put merges one run into the file, replacing only its own profile.
func (f *BenchFile) Put(rep *Report) {
	f.Schema = BenchSchema
	f.Profiles[rep.Profile] = rep
}

// WriteBenchFile persists the file with an atomic rename.
func WriteBenchFile(path string, f *BenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// diffNames are the headline metrics a regression diff renders, each
// resolved through metricValue.
func diffNames(r *Report) []string {
	names := []string{"throughput", "goodput", "error_rate", "shed", "rejected"}
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		names = append(names, k+".p50", k+".p99")
	}
	return append(names, "splits", "iams")
}

// DiffReports renders a headline comparison of a run against the
// previous BENCH entry for the same profile — the context printed when
// an SLO gate fails.
func DiffReports(prev, cur *Report) string {
	if prev == nil {
		return "(no previous BENCH entry for profile " + cur.Profile + ")\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", "metric", "previous", "current", "delta")
	for _, name := range diffNames(cur) {
		v, _ := metricValue(cur, name)
		pv, ok := metricValue(prev, name)
		if !ok {
			fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", name, "-", fmtMetric(name, v), "new")
			continue
		}
		delta := "-"
		if pv != 0 {
			delta = fmt.Sprintf("%+.1f%%", (v-pv)/pv*100)
		} else if v != 0 {
			delta = "+inf"
		}
		fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", name, fmtMetric(name, pv), fmtMetric(name, v), delta)
	}
	return b.String()
}

// fmtMetric renders latency series as durations, everything else raw.
func fmtMetric(name string, v float64) string {
	if strings.HasSuffix(name, ".p50") || strings.HasSuffix(name, ".p99") {
		return fmt.Sprintf("%.2fms", v/1e6)
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
