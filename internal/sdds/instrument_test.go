package sdds

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// sumOpHistograms adds up the per-opcode latency histogram counts.
func sumOpHistograms(reg *obs.Registry) uint64 {
	var total uint64
	for _, name := range opNames {
		if name != "" {
			total += reg.HistogramSnapshot("node_op_" + name + "_ns").Count
		}
	}
	return total
}

// TestNodeSearchMetricInvariants drives an instrumented posting-index
// cluster through inserts, splits, and searches, then checks the
// node-side accounting invariants:
//
//	posting_searches + linear_searches == searches
//	posting_verified <= posting_candidates
//	sum(per-op histograms) == node_ops_total
func TestNodeSearchMetricInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	c, nodes := memClusterNodes(t, 3, false)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	for _, n := range nodes {
		n.Instrument(reg)
	}
	c.SetMaxLoad(FileIndex, 8)
	c.SetMaxLoad(FileRecords, 8)

	contents := make(map[uint64][]byte)
	const nRecs = 40
	for rid := uint64(1); rid <= nRecs; rid++ {
		rc := randomRecord(rng)
		contents[rid] = rc
		if err := c.Put(ctx, FileRecords, rid, rc); err != nil {
			t.Fatal(err)
		}
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}

	const nQueries = 10
	for q := 0; q < nQueries; q++ {
		rid := uint64(1 + rng.Intn(nRecs))
		rc := contents[rid]
		off := rng.Intn(len(rc) - 7)
		query, err := pl.BuildQuery(rc[off:off+8], false)
		if err != nil {
			t.Fatal(err)
		}
		rids, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range rids {
			found = found || r == rid
		}
		if !found {
			t.Fatalf("query %d: search missed rid %d", q, rid)
		}
	}

	// Client-side counters match the workload and the cluster's own
	// bookkeeping.
	if got := reg.CounterValue("cluster_puts_total"); got != nRecs {
		t.Errorf("cluster_puts_total = %d, want %d", got, nRecs)
	}
	if got := reg.CounterValue("cluster_searches_total"); got != nQueries {
		t.Errorf("cluster_searches_total = %d, want %d", got, nQueries)
	}
	splitsR, iamsR := c.Stats(FileRecords)
	splitsI, iamsI := c.Stats(FileIndex)
	if got := reg.CounterValue("cluster_splits_total"); got != uint64(splitsR+splitsI) {
		t.Errorf("cluster_splits_total = %d, want %d", got, splitsR+splitsI)
	}
	if got := reg.CounterValue("cluster_iams_total"); got != uint64(iamsR+iamsI) {
		t.Errorf("cluster_iams_total = %d, want %d", got, iamsR+iamsI)
	}
	if splitsR+splitsI == 0 {
		t.Error("workload produced no splits; invariants not exercised")
	}
	if snap := reg.HistogramSnapshot("cluster_search_ns"); snap.Count != nQueries {
		t.Errorf("cluster_search_ns count = %d, want %d", snap.Count, nQueries)
	}

	// Node-side search path accounting.
	searches := reg.CounterValue("node_searches_total")
	posting := reg.CounterValue("node_posting_searches_total")
	linear := reg.CounterValue("node_linear_searches_total")
	if posting+linear != searches {
		t.Errorf("posting(%d) + linear(%d) != searches(%d)", posting, linear, searches)
	}
	if linear != 0 {
		t.Errorf("posting-indexed cluster took %d linear scans", linear)
	}
	if posting == 0 {
		t.Error("no posting searches recorded")
	}
	cand := reg.CounterValue("node_posting_candidates_total")
	verified := reg.CounterValue("node_posting_verified_total")
	if verified > cand {
		t.Errorf("posting_verified(%d) > posting_candidates(%d)", verified, cand)
	}
	if cand == 0 {
		t.Error("no posting candidates probed")
	}
	if reg.CounterValue("node_search_hits_total") == 0 {
		t.Error("no search hits recorded despite successful queries")
	}

	// Every handled request lands in exactly one per-op histogram.
	ops := reg.CounterValue("node_ops_total")
	if got := sumOpHistograms(reg); got != ops {
		t.Errorf("sum(per-op histograms) = %d, want node_ops_total = %d", got, ops)
	}
	if snap := reg.HistogramSnapshot("node_op_search_ns"); snap.Count != searches {
		t.Errorf("node_op_search_ns count = %d, want %d", snap.Count, searches)
	}
	if ops == 0 {
		t.Error("node_ops_total is zero")
	}
}

// TestLinearScanMetricInvariants checks the fallback path: with the
// posting index disabled every search is a linear scan.
func TestLinearScanMetricInvariants(t *testing.T) {
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	c, nodes := memClusterNodes(t, 2, true)
	reg := obs.NewRegistry()
	for _, n := range nodes {
		n.Instrument(reg)
	}
	recs, err := pl.BuildIndex(42, []byte("LINEAR SCAN FALLBACK"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
		t.Fatal(err)
	}
	query, err := pl.BuildQuery([]byte("FALLBACK"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
		t.Fatal(err)
	}
	searches := reg.CounterValue("node_searches_total")
	linear := reg.CounterValue("node_linear_searches_total")
	if searches == 0 || linear != searches {
		t.Errorf("linear(%d) != searches(%d) on index-disabled cluster", linear, searches)
	}
	if got := reg.CounterValue("node_posting_searches_total"); got != 0 {
		t.Errorf("posting searches = %d on index-disabled cluster", got)
	}
}

// TestSupervisorPhaseMetricsMatchJournal runs a full detect → revive →
// local replay cycle and checks the central repair-accounting invariant:
// every journaled record increments exactly one phase counter, so the
// phase counters sum to the journal length plus anything the ring
// bound shed.
func TestSupervisorPhaseMetricsMatchJournal(t *testing.T) {
	sc := newSupervisedCluster(t, 4)
	reg := obs.NewRegistry()
	sc.sup.Instrument(reg)
	clk := sc.clk

	ctx := context.Background()
	loadRecords(t, sc.cluster, 60)

	sc.kill(1, 3)
	sc.sup.Reconcile(ctx) // detect both down
	clk.Advance(debounce)
	sc.sup.Reconcile(ctx) // debounce ripe: revive and replay
	clk.Advance(debounce)
	sc.sup.Reconcile(ctx) // observe recovery

	h := sc.sup.Health()
	if len(h.Down) != 0 {
		t.Fatalf("nodes still down after repair: %v", h.Down)
	}
	var phaseSum uint64
	for p := 0; p < repairPhaseCount; p++ {
		name := "supervisor_phase_" + sanitizePhase(RepairPhase(p).String()) + "_total"
		phaseSum += reg.CounterValue(name)
	}
	if phaseSum != uint64(h.JournalLen)+h.JournalDropped {
		t.Errorf("sum(phase counters) = %d, want journal length %d + dropped %d",
			phaseSum, h.JournalLen, h.JournalDropped)
	}
	if phaseSum == 0 {
		t.Error("no repair phases recorded")
	}
	// The cycle must include at least a detection and a completion.
	if got := reg.CounterValue("supervisor_phase_detected_total"); got != 2 {
		t.Errorf("supervisor_phase_detected_total = %d, want 2", got)
	}
	if got := reg.CounterValue("supervisor_phase_local_recovery_total"); got != 2 {
		t.Errorf("supervisor_phase_local_recovery_total = %d, want 2", got)
	}
}
