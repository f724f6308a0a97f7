package sdds

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// chaosCluster wires n in-memory nodes behind a Faulty + Retry stack.
// Both client operations and server-to-server forwarding traverse the
// full middleware, exactly as esdds.NewMemoryCluster wires it.
func chaosCluster(t *testing.T, n int, seed int64, policy transport.RetryPolicy) (*Cluster, *transport.Faulty, *transport.Retry, *transport.Memory) {
	t.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	faulty := transport.NewFaulty(mem, seed)
	retry := transport.NewRetry(faulty, policy, seed)
	for _, id := range ids {
		node := NewNode(id, retry, place)
		mem.Register(id, node.Handler())
	}
	return NewCluster(retry, place), faulty, retry, mem
}

func chaosPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// TestChaosPutGetDeleteUnderDropsAndDelays drives the full key-value
// workload through a lossy, slow network: with retries enabled, no
// client-visible error may surface, and the data must be intact.
func TestChaosPutGetDeleteUnderDropsAndDelays(t *testing.T) {
	c, faulty, retry, _ := chaosCluster(t, 4, 20060410, chaosPolicy())
	c.SetMaxLoad(FileRecords, 8) // force splits mid-chaos
	faulty.SetDefault(transport.Fault{
		Drop:      0.15,
		Fail:      0.05,
		DelayProb: 0.1,
		Delay:     100 * time.Microsecond,
	})
	ctx := context.Background()
	const N = 300
	for k := uint64(0); k < N; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{byte(k), byte(k >> 8)}); err != nil {
			t.Fatalf("Put(%d) not masked: %v", k, err)
		}
	}
	if c.Size(FileRecords) != N {
		t.Errorf("Size = %d, want %d", c.Size(FileRecords), N)
	}
	if c.State(FileRecords).Buckets() < 8 {
		t.Errorf("no splits under chaos: %d buckets", c.State(FileRecords).Buckets())
	}
	for k := uint64(0); k < N; k++ {
		v, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil {
			t.Fatalf("Get(%d) not masked: %v", k, err)
		}
		if !ok || v[0] != byte(k) || v[1] != byte(k>>8) {
			t.Fatalf("Get(%d) = %v %v — record corrupted or lost", k, v, ok)
		}
	}
	for k := uint64(0); k < N/2; k++ {
		ok, err := c.Delete(ctx, FileRecords, k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v %v", k, ok, err)
		}
	}
	if c.Size(FileRecords) != N/2 {
		t.Errorf("Size after deletes = %d, want %d", c.Size(FileRecords), N/2)
	}
	// The chaos actually happened: drops were injected and retried.
	var dropped, retries uint64
	for _, st := range faulty.Stats() {
		dropped += st.Dropped
	}
	for _, st := range retry.Stats() {
		retries += st.Retries
	}
	if dropped == 0 || retries == 0 {
		t.Errorf("chaos did not engage: dropped=%d retries=%d", dropped, retries)
	}
}

// TestChaosDeterministicReplay runs the identical seeded workload twice
// and requires identical fault statistics — the reproducibility
// guarantee that makes chaos failures debuggable.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() []transport.FaultStats {
		c, faulty, _, _ := chaosCluster(t, 4, 777, chaosPolicy())
		faulty.SetDefault(transport.Fault{Drop: 0.2, Fail: 0.1})
		ctx := context.Background()
		for k := uint64(0); k < 200; k++ {
			if err := c.Put(ctx, FileRecords, k, []byte{byte(k)}); err != nil {
				t.Fatalf("Put(%d): %v", k, err)
			}
			if _, _, err := c.Get(ctx, FileRecords, k); err != nil {
				t.Fatalf("Get(%d): %v", k, err)
			}
		}
		return faulty.Stats()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stats length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("node %d stats diverged: %+v vs %+v", a[i].Node, a[i], b[i])
		}
	}
}

// TestSearchPartialNamesExactlyTheDeadNodes blacks out a subset of
// nodes and requires Search's IncompleteError to name precisely that
// subset — no more (healthy nodes misreported) and no less (failures
// swallowed).
func TestSearchPartialNamesExactlyTheDeadNodes(t *testing.T) {
	p := chaosPolicy()
	p.MaxAttempts = 3 // keep exhaustion against dead nodes quick
	c, faulty, _, _ := chaosCluster(t, 5, 4242, p)
	pl := testPipeline(t, 4, 2, 2)
	ctx := context.Background()

	rng := newChaosCorpus()
	for rid := uint64(1); rid <= 40; rid++ {
		recs, err := pl.BuildIndex(rid, rng.record(rid))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("GRIDLOCK"), false)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy cluster: no failures reported.
	if _, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
		t.Fatalf("healthy Search: %v", err)
	}

	// Search refuses to return a silent under-approximation: the dead
	// nodes come back named in an IncompleteError.
	dead := []transport.NodeID{1, 3}
	faulty.Blackout(dead...)
	_, err = c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("Search with dead nodes: %v, want an IncompleteError", err)
	}
	if failed := failedNodes(ie.Failed); len(failed) != len(dead) || failed[0] != dead[0] || failed[1] != dead[1] {
		t.Fatalf("failed = %v, want exactly %v", failed, dead)
	}

	faulty.Restore(dead...)
	if _, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
		t.Fatalf("restored Search: %v", err)
	}
}

// TestRetryExhaustionSurfacesUnderlyingError kills one node's traffic
// completely and requires the SDDS operation to fail with the true
// transport cause still identifiable through the wrap chain.
func TestRetryExhaustionSurfacesUnderlyingError(t *testing.T) {
	p := chaosPolicy()
	p.MaxAttempts = 3
	c, faulty, _, _ := chaosCluster(t, 2, 5, p)
	faulty.SetFault(0, transport.Fault{Drop: 1})
	faulty.SetFault(1, transport.Fault{Drop: 1})
	ctx := context.Background()
	err := c.Put(ctx, FileRecords, 1, []byte("x"))
	if err == nil {
		t.Fatal("Put succeeded through a fully lossy network")
	}
	if !errors.Is(err, transport.ErrInjectedDrop) {
		t.Errorf("underlying drop lost: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("exhaustion masqueraded as timeout: %v", err)
	}
}

// chaosCorpus generates deterministic record contents with a marker
// substring present in a known subset.
type chaosCorpus struct{}

func newChaosCorpus() *chaosCorpus { return &chaosCorpus{} }

func (cc *chaosCorpus) record(rid uint64) []byte {
	if rid%4 == 0 {
		return []byte(fmt.Sprintf("RECORD %04d HAS GRIDLOCK INSIDE", rid))
	}
	return []byte(fmt.Sprintf("RECORD %04d IS PERFECTLY ORDINARY", rid))
}

// TestSearchPartialUnderDupAndDelayFaults: duplicate deliveries and
// reordering delays must never change a search's answer — per-site hits
// are deduplicated by the K-site agreement combine, so repeated runs
// over a dup/delay-faulty network return the same dup-free, sorted RID
// set as a clean run.
func TestSearchPartialUnderDupAndDelayFaults(t *testing.T) {
	c, faulty, _, _ := chaosCluster(t, 4, 777, chaosPolicy())
	pl := testPipeline(t, 4, 2, 2)
	ctx := context.Background()

	rng := newChaosCorpus()
	for rid := uint64(1); rid <= 40; rid++ {
		recs, err := pl.BuildIndex(rid, rng.record(rid))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("GRIDLOCK"), false)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if err != nil {
		t.Fatalf("clean Search: %v", err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline found no hits")
	}
	for i := 1; i < len(baseline); i++ {
		if baseline[i] <= baseline[i-1] {
			t.Fatalf("baseline not sorted/deduplicated: %v", baseline)
		}
	}

	faulty.SetDefault(transport.Fault{
		Dup:       0.5,
		DelayProb: 0.3,
		Delay:     200 * time.Microsecond,
	})
	for run := 0; run < 5; run++ {
		rids, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatalf("run %d: dup/delay faults failed the search: %v", run, err)
		}
		if len(rids) != len(baseline) {
			t.Fatalf("run %d: %v, want baseline %v", run, rids, baseline)
		}
		for i := range rids {
			if rids[i] != baseline[i] {
				t.Fatalf("run %d diverged: %v, want %v", run, rids, baseline)
			}
		}
	}
	// The faults actually fired.
	var dup, delayed uint64
	for _, fs := range faulty.Stats() {
		dup += fs.Duplicated
		delayed += fs.Delayed
	}
	if dup == 0 || delayed == 0 {
		t.Fatalf("fault schedule inert: dup=%d delayed=%d", dup, delayed)
	}
}
