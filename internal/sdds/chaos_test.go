package sdds

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/transport"
)

// chaosCluster wires n in-memory nodes behind a Faulty transport. Both
// client operations and server-to-server forwarding cross it, exactly
// as esdds.NewMemoryCluster wires it.
func chaosCluster(t *testing.T, n int, seed int64) (*Cluster, *transport.Faulty, *transport.Memory) {
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
	faulty := transport.NewFaulty(mem, seed, clock.Real{})
	for _, id := range ids {
		node := NewNode(id, faulty, place)
		mem.Register(id, node.Handler())
	}
	return NewCluster(faulty, place), faulty, mem
}

// maxReruns bounds how often a chaos test re-runs one failed operation.
// At 20% per-send failure an op needs a handful of runs at most; a
// bound this loose only trips when re-running stops converging.
const maxReruns = 12

// rerun runs op until it succeeds — the caller's side of the re-run
// contract (DESIGN.md §7): nothing below the caller re-sends, so each
// failure surfaces, and it must be one the injected faults explain. A
// fault may reach the client directly (wrapped in the error chain) or
// through a node: a forward that hit a fault, or a bucket frozen by a
// migration an earlier fault stalled, comes back as that node's
// RemoteError.
func rerun(t *testing.T, what string, op func() error) {
	t.Helper()
	for i := 0; i < maxReruns; i++ {
		err := op()
		if err == nil {
			return
		}
		if !faultExplained(err) {
			t.Fatalf("%s: failure not explained by an injected fault: %v", what, err)
		}
	}
	t.Fatalf("%s: still failing after %d runs", what, maxReruns)
}

func faultExplained(err error) bool {
	if errors.Is(err, transport.ErrInjectedDrop) || errors.Is(err, transport.ErrInjectedFault) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && (strings.Contains(re.Msg, transport.ErrInjectedDrop.Error()) ||
		strings.Contains(re.Msg, transport.ErrInjectedFault.Error()) ||
		strings.Contains(re.Msg, "frozen by in-flight migration"))
}

// TestChaosPutGetDeleteUnderDropsAndDelays drives the full key-value
// workload through a lossy, slow network. Every failure must be one an
// injected fault explains, and re-running each failed op until it
// succeeds must leave the data exact: sizes, values, applied deletes,
// and no migration left in flight.
func TestChaosPutGetDeleteUnderDropsAndDelays(t *testing.T) {
	for seed := int64(20060410); seed < 20060410+8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { chaosPutGetDelete(t, seed) })
	}
}

func chaosPutGetDelete(t *testing.T, seed int64) {
	c, faulty, _ := chaosCluster(t, 4, seed)
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
		rerun(t, fmt.Sprintf("Put(%d)", k), func() error {
			return c.Put(ctx, FileRecords, k, []byte{byte(k), byte(k >> 8)})
		})
	}
	if c.coord.File(FileRecords).Size != N {
		t.Errorf("Size = %d, want %d", c.coord.File(FileRecords).Size, N)
	}
	if c.coord.File(FileRecords).State.Buckets() < 8 {
		t.Errorf("no splits under chaos: %d buckets", c.coord.File(FileRecords).State.Buckets())
	}
	for k := uint64(0); k < N; k++ {
		var v []byte
		var ok bool
		rerun(t, fmt.Sprintf("Get(%d)", k), func() (err error) {
			v, ok, err = c.Get(ctx, FileRecords, k)
			return err
		})
		if !ok || v[0] != byte(k) || v[1] != byte(k>>8) {
			t.Fatalf("Get(%d) = %v %v — record corrupted or lost", k, v, ok)
		}
	}
	for k := uint64(0); k < N/2; k++ {
		rerun(t, fmt.Sprintf("Delete(%d)", k), func() error {
			_, err := c.Delete(ctx, FileRecords, k)
			return err
		})
	}
	if c.coord.File(FileRecords).Size != N/2 {
		t.Errorf("Size after deletes = %d, want %d", c.coord.File(FileRecords).Size, N/2)
	}
	faulty.SetDefault(transport.Fault{})
	for k := uint64(0); k < N; k++ {
		_, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil || ok != (k >= N/2) {
			t.Fatalf("clean Get(%d) = %v, %v; want present=%v", k, ok, err, k >= N/2)
		}
	}
	if n := c.coord.MigrationStats().InFlight; n != 0 {
		t.Errorf("%d migrations still in flight", n)
	}
	// The chaos actually happened.
	var dropped, failed uint64
	for _, st := range faulty.Stats() {
		dropped += st.Dropped
		failed += st.Failed
	}
	if dropped == 0 || failed == 0 {
		t.Errorf("chaos did not engage: dropped=%d failed=%d", dropped, failed)
	}
}

// TestFrozenBucketThawsAfterTransientSplitFailure: a split whose target
// is unreachable leaves its source bucket frozen. Once the target is
// back, a failed write re-drives the stalled migration, so re-running
// the write succeeds instead of failing until the next split or merge.
func TestFrozenBucketThawsAfterTransientSplitFailure(t *testing.T) {
	c, faulty, _ := chaosCluster(t, 3, 1)
	c.SetMaxLoad(FileRecords, 8)
	ctx := context.Background()
	for k := uint64(0); k < 8; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// Bucket 0 splits into bucket 1, which lives on node 1.
	faulty.Blackout(1)
	if err := c.Put(ctx, FileRecords, 8, []byte{8}); !errors.Is(err, transport.ErrNodeDown) {
		t.Fatalf("overflowing put with the split target down = %v, want ErrNodeDown", err)
	}
	if n := c.coord.MigrationStats().InFlight; n != 1 {
		t.Fatalf("InFlight = %d after the failed split, want 1", n)
	}
	faulty.Restore(1)
	// The first re-run is refused by the frozen bucket and, failing,
	// re-drives the stalled split; the second lands.
	for run := 1; ; run++ {
		err := c.Put(ctx, FileRecords, 0, []byte{0})
		if err == nil {
			break
		}
		if run == 2 {
			t.Fatalf("Put(0) still failing after %d re-runs: %v", run, err)
		}
	}
	if n := c.coord.MigrationStats().InFlight; n != 0 {
		t.Fatalf("InFlight = %d after the re-run succeeded, want 0", n)
	}
	for k := uint64(0); k <= 8; k++ {
		v, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) = %v %v %v", k, v, ok, err)
		}
	}
	if got := c.coord.File(FileRecords).State.Buckets(); got != 2 {
		t.Fatalf("buckets = %d, want 2", got)
	}
}

// TestChaosDeterministicReplay runs the identical seeded workload twice
// and requires identical fault statistics — the reproducibility
// guarantee that makes chaos failures debuggable.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() []transport.FaultStats {
		c, faulty, _ := chaosCluster(t, 4, 777)
		faulty.SetDefault(transport.Fault{Drop: 0.2, Fail: 0.1})
		ctx := context.Background()
		for k := uint64(0); k < 200; k++ {
			rerun(t, fmt.Sprintf("Put(%d)", k), func() error {
				return c.Put(ctx, FileRecords, k, []byte{byte(k)})
			})
			rerun(t, fmt.Sprintf("Get(%d)", k), func() error {
				_, _, err := c.Get(ctx, FileRecords, k)
				return err
			})
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
	c, faulty, _ := chaosCluster(t, 5, 4242)
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
	c, faulty, _ := chaosCluster(t, 4, 777)
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
