package esdds

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sdds"
	"repro/internal/transport"
)

// observeCorpus inserts n records with predictable contents and returns
// them keyed by RID.
func observeCorpus(t *testing.T, store *Store, n int) map[uint64]string {
	t.Helper()
	ctx := context.Background()
	out := make(map[uint64]string, n)
	for i := 0; i < n; i++ {
		content := fmt.Sprintf("RECORD NUMBER %04d PAYLOAD", i)
		rid := uint64(100 + i)
		if err := store.Insert(ctx, rid, []byte(content)); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
		out[rid] = content
	}
	return out
}

// TestObservabilityChaosMetricInvariants runs the chaos workload on a
// fully instrumented cluster and cross-checks every layer's counters
// against the components' own accounting: injected faults, node search
// paths, and client operations (every run, failed ones included) must
// all agree.
func TestObservabilityChaosMetricInvariants(t *testing.T) {
	const seed = 20060410
	cluster := NewMemoryCluster(4,
		WithObservability(),
		WithFaultInjection(seed),
	)
	defer cluster.Close()
	reg := cluster.Metrics()
	if reg == nil {
		t.Fatal("Metrics() returned nil with WithObservability")
	}

	store, err := Open(cluster, KeyFromPassphrase("obs-chaos"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cluster.Faults().SetDefault(transport.Fault{Drop: 0.05, DelayProb: 0.2, Delay: time.Millisecond})
	const nRecs = 40
	var inserts, searches uint64 // every run, failed ones included
	for i := 0; i < nRecs; i++ {
		rid := uint64(100 + i)
		rerun(t, fmt.Sprintf("Insert(%d)", rid), func() error {
			inserts++
			return store.Insert(ctx, rid, []byte(fmt.Sprintf("RECORD NUMBER %04d PAYLOAD", i)))
		})
	}

	const nQueries = 8
	for i := 0; i < nQueries; i++ {
		want := uint64(100 + i*4)
		var rids []uint64
		rerun(t, fmt.Sprintf("query %d", i), func() (err error) {
			searches++
			rids, err = store.Search(ctx, []byte(fmt.Sprintf("NUMBER %04d", i*4)), SearchFast)
			return err
		})
		found := false
		for _, r := range rids {
			found = found || r == want
		}
		if !found {
			t.Fatalf("query %d missed rid %d (got %v)", i, want, rids)
		}
	}
	cluster.Faults().SetDefault(transport.Fault{})

	// Injected-fault counters mirror the injector's own accounting.
	var sends, dropped, delayed uint64
	for _, fs := range cluster.Faults().Stats() {
		sends += fs.Sends
		dropped += fs.Dropped
		delayed += fs.Delayed
	}
	if got := reg.CounterValue("transport_fault_sends_total"); got != sends {
		t.Errorf("transport_fault_sends_total = %d, want %d", got, sends)
	}
	if got := reg.CounterValue("transport_fault_drops_total"); got != dropped {
		t.Errorf("transport_fault_drops_total = %d, want %d", got, dropped)
	}
	if got := reg.CounterValue("transport_fault_delays_total"); got != delayed {
		t.Errorf("transport_fault_delays_total = %d, want %d", got, delayed)
	}
	if dropped == 0 {
		t.Error("chaos run injected no drops; invariants not exercised")
	}

	// Node layer: search-path split and per-op histograms.
	nodeSearches := reg.CounterValue("node_searches_total")
	posting := reg.CounterValue("node_posting_searches_total")
	linear := reg.CounterValue("node_linear_searches_total")
	if posting+linear != nodeSearches {
		t.Errorf("posting(%d) + linear(%d) != searches(%d)", posting, linear, nodeSearches)
	}
	if nodeSearches == 0 {
		t.Error("no node searches recorded")
	}
	if snap := reg.HistogramSnapshot("node_op_search_ns"); snap.Count != nodeSearches {
		t.Errorf("node_op_search_ns count = %d, want %d", snap.Count, nodeSearches)
	}
	if verified, cand := reg.CounterValue("node_posting_verified_total"), reg.CounterValue("node_posting_candidates_total"); verified > cand {
		t.Errorf("posting_verified(%d) > posting_candidates(%d)", verified, cand)
	}

	// Client layer: one Put per insert run, one search per query run,
	// and the search latency histogram saw every run.
	if got := reg.CounterValue("cluster_puts_total"); got != inserts {
		t.Errorf("cluster_puts_total = %d, want %d", got, inserts)
	}
	if got := reg.CounterValue("cluster_searches_total"); got != searches {
		t.Errorf("cluster_searches_total = %d, want %d", got, searches)
	}
	if snap := reg.HistogramSnapshot("cluster_search_ns"); snap.Count != searches {
		t.Errorf("cluster_search_ns count = %d, want %d", snap.Count, searches)
	}
	if inserts == nRecs && searches == nQueries {
		t.Error("no operation failed; the re-run accounting was not exercised")
	}
}

// TestObservabilityDurabilityMetricInvariants checks the WAL counters
// over a durable cluster against group commit's conservation law (every
// append retired in exactly one group, never more journal fsyncs than
// appends), and that a kill/revive cycle replays the journal.
func TestObservabilityDurabilityMetricInvariants(t *testing.T) {
	dir := t.TempDir()
	cluster := NewMemoryCluster(3, WithObservability(), WithDataDir(dir))
	reg := cluster.Metrics()
	store, err := Open(cluster, KeyFromPassphrase("obs-wal"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const nRecs = 20
	observeCorpus(t, store, nRecs)

	appends := reg.CounterValue("wal_appends_total")
	fsyncs := reg.CounterValue("wal_fsyncs_total")
	// Every insert journals at least its record put; splits and index
	// inserts journal more.
	if appends < nRecs {
		t.Errorf("wal_appends_total = %d, want >= %d (one per acknowledged put)", appends, nRecs)
	}
	// The cluster is quiescent: nothing is pending, so every appended
	// frame has been retired in a group — by a flush or by a checkpoint
	// that covered it. (Header syncs are not in the count: stores are
	// instrumented after Open.)
	checkpoints := reg.CounterValue("wal_checkpoints_total")
	if groups := reg.HistogramSnapshot("wal_group_size"); uint64(groups.Sum) != appends {
		t.Errorf("Σ wal_group_size = %d, want wal_appends_total = %d", groups.Sum, appends)
	}
	if fsyncs == 0 || fsyncs > appends+2*checkpoints {
		t.Errorf("wal_fsyncs_total = %d, want in (0, appends %d + 2·checkpoints %d]", fsyncs, appends, checkpoints)
	}
	if snap := reg.HistogramSnapshot("wal_sync_wait_ns"); snap.Count == 0 {
		t.Error("wal_sync_wait_ns recorded no waits")
	}

	// Crash one node and revive it: the store reopens and replays.
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	rec, ok := cluster.NodeRecovery(1)
	if !ok || rec.Outcome != "recovered" {
		t.Fatalf("node 1 recovery = %+v, %v; want recovered", rec, ok)
	}
	if got := reg.CounterValue("wal_replays_total"); got != 1 {
		t.Errorf("wal_replays_total = %d, want 1", got)
	}
	if got := reg.CounterValue("wal_replay_entries_total"); got == 0 {
		t.Error("replay accounted no journal entries")
	}
	// The revived node keeps serving reads.
	if _, err := store.Get(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilitySelfHealingMetricInvariants runs a full failure →
// repair cycle and checks the control-loop counters: the supervisor's
// phase counters sum to the journal accounting, the detector's
// transition counters saw the node go down and come back, and no layer
// registers a guardian_ metric.
func TestObservabilitySelfHealingMetricInvariants(t *testing.T) {
	hc := newHealClock()
	cluster := NewMemoryCluster(4, append([]ClusterOption{WithObservability(), WithDataDir(t.TempDir())}, hc.selfHealing()...)...)
	defer cluster.Close()
	reg := cluster.Metrics()

	store, err := Open(cluster, KeyFromPassphrase("obs-heal"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	observeCorpus(t, store, 30)

	if err := cluster.KillNode(2); err != nil {
		t.Fatal(err)
	}
	// Step until the repair has completed and the cluster reports
	// healthy again.
	hc.until(t, "repair", func() bool { return cluster.ClusterHealth().Repairs >= 1 && converged(cluster) })
	if err := cluster.SelfHealing().AwaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}

	// Detector saw the failure and the recovery.
	if got := reg.CounterValue("detector_transitions_down_total"); got == 0 {
		t.Error("no down transitions counted")
	}
	if got := reg.CounterValue("detector_transitions_up_total"); got == 0 {
		t.Error("no up transitions counted")
	}
	if got := reg.GaugeValue("detector_down_nodes"); got != 0 {
		t.Errorf("detector_down_nodes = %d after AwaitHealthy, want 0", got)
	}

	// The node replayed its journal and the supervisor journaled the
	// repair; phase counters must account for every journal record.
	health := cluster.ClusterHealth()
	var phaseSum uint64
	for p := 0; p <= int(sdds.RepairLocalRecovery); p++ {
		name := "supervisor_phase_" + strings.ReplaceAll(sdds.RepairPhase(p).String(), "-", "_") + "_total"
		phaseSum += reg.CounterValue(name)
	}
	if phaseSum != uint64(health.JournalLen)+health.JournalDropped {
		t.Errorf("sum(phase counters) = %d, want journal len %d + dropped %d",
			phaseSum, health.JournalLen, health.JournalDropped)
	}
	if got := reg.CounterValue("supervisor_phase_local_recovery_total"); got != 1 {
		t.Errorf("supervisor_phase_local_recovery_total = %d, want 1", got)
	}

	// The /metrics exposition carries every layer's names.
	text := reg.WriteString()
	for _, name := range []string{
		"detector_probes_total",
		"detector_passive_signals_total",
		"node_ops_total",
		"cluster_puts_total",
		"supervisor_phase_local_recovery_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics exposition missing %q", name)
		}
	}
	if strings.Contains(text, "guardian_") {
		t.Error("metrics exposition carries a guardian_ metric")
	}
}

// TestMetricsNilWithoutObservability pins the default: no registry, no
// overhead, and the accessor reports it honestly.
func TestMetricsNilWithoutObservability(t *testing.T) {
	cluster := NewMemoryCluster(2)
	defer cluster.Close()
	if cluster.Metrics() != nil {
		t.Fatal("Metrics() non-nil without WithObservability")
	}
	store, err := Open(cluster, KeyFromPassphrase("plain"), Config{ChunkSize: 4, Chunkings: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := store.Insert(ctx, 1, []byte("UNINSTRUMENTED PATH")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Search(ctx, []byte("UNINSTRUMENTED"), SearchFast); err != nil {
		t.Fatal(err)
	}
}
