package esdds

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sdds"
	"repro/internal/transport"
)

// faultExplained reports whether an operation's failure is one the
// injected faults explain: the fault reached the client (wrapped in the
// error chain) or a node (its forward hit the fault, or a migration an
// earlier fault stalled froze the bucket), which answers with a
// RemoteError saying so.
func faultExplained(err error) bool {
	if errors.Is(err, transport.ErrInjectedDrop) || errors.Is(err, transport.ErrInjectedFault) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && (strings.Contains(re.Msg, transport.ErrInjectedDrop.Error()) ||
		strings.Contains(re.Msg, transport.ErrInjectedFault.Error()) ||
		strings.Contains(re.Msg, "frozen by in-flight migration"))
}

// rerun runs op until it succeeds, as a caller of a cluster that never
// re-sends on its own must: every failure has to be one the injected
// faults explain, and the runs are bounded. The bound is loose because
// an insert into six nodes sends six batches plus any split, so at 20 %
// per-send failure one run succeeds only about a quarter of the time;
// the eight seeds need at most 13.
func rerun(t *testing.T, what string, op func() error) {
	t.Helper()
	const maxRuns = 20
	for i := 0; i < maxRuns; i++ {
		err := op()
		if err == nil {
			return
		}
		if !faultExplained(err) {
			t.Fatalf("%s: failure not explained by an injected fault: %v", what, err)
		}
	}
	t.Fatalf("%s: still failing after %d runs", what, maxRuns)
}

// TestClusterSurvivesNodeFailuresEndToEnd is the acceptance scenario for
// the availability contract, over the public API only:
//
//  1. a seeded workload runs against a lossy network; every failed
//     insert, get and delete is re-run until it succeeds, and the data
//     ends exact (each failure is one the injected faults explain),
//  2. two nodes are killed mid-operation; Search fails with an
//     IncompleteError that names exactly the dead nodes and carries no
//     spurious hit,
//  3. each dead node is revived from its own journal, after which a
//     full Search returns the pre-failure result set.
func TestClusterSurvivesNodeFailuresEndToEnd(t *testing.T) {
	const nodes = 6
	for seed := int64(20060410); seed < 20060410+8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { survivesNodeFailures(t, nodes, seed) })
	}
}

func survivesNodeFailures(t *testing.T, nodes int, seed int64) {
	cluster := NewMemoryCluster(nodes,
		WithDataDir(t.TempDir()),
		WithFaultInjection(seed),
	)
	defer cluster.Close()

	store, err := Open(cluster, KeyFromPassphrase("chaos"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4, // force splits so every node ends up holding buckets
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Phase 1 — workload through a lossy, slow network: drops, synthetic
	// errors and delays. Duplicate delivery stays off because inserts
	// trigger bucket splits, which are not idempotent.
	cluster.Faults().SetDefault(transport.Fault{
		Drop:      0.15,
		Fail:      0.05,
		DelayProb: 0.1,
		Delay:     100 * time.Microsecond,
	})
	const records = 60
	content := func(rid uint64) string {
		if rid%3 == 0 {
			return fmt.Sprintf("RECORD %04d CARRIES BEACON PAYLOAD", rid)
		}
		return fmt.Sprintf("RECORD %04d ROUTINE TRAFFIC", rid)
	}
	for rid := uint64(1); rid <= records; rid++ {
		rerun(t, fmt.Sprintf("Insert(%d)", rid), func() error {
			return store.Insert(ctx, rid, []byte(content(rid)))
		})
	}
	// Delete every fifth record; a beacon among them leaves the hits.
	deleted := func(rid uint64) bool { return rid%5 == 0 }
	var wantHits []uint64
	for rid := uint64(1); rid <= records; rid++ {
		if deleted(rid) {
			first := true
			rerun(t, fmt.Sprintf("Delete(%d)", rid), func() error {
				err := store.Delete(ctx, rid)
				if errors.Is(err, ErrNotFound) && !first {
					err = nil // an earlier, failed run already removed the record
				}
				first = false
				return err
			})
		} else if rid%3 == 0 {
			wantHits = append(wantHits, rid)
		}
	}
	for rid := uint64(1); rid <= records; rid++ {
		var got []byte
		rerun(t, fmt.Sprintf("Get(%d)", rid), func() error {
			var err error
			got, err = store.Get(ctx, rid)
			if deleted(rid) && errors.Is(err, ErrNotFound) {
				return nil
			}
			return err
		})
		if !deleted(rid) && string(got) != content(rid) {
			t.Fatalf("Get(%d) = %q, want %q", rid, got, content(rid))
		}
		if deleted(rid) && got != nil {
			t.Fatalf("Get(%d) = %q after its delete", rid, got)
		}
	}
	var dropped, failedSends uint64
	for _, st := range cluster.Faults().Stats() {
		dropped += st.Dropped
		failedSends += st.Failed
	}
	if dropped == 0 || failedSends == 0 {
		t.Fatalf("chaos did not engage: dropped=%d failed=%d", dropped, failedSends)
	}
	cluster.Faults().ClearFaults()
	if n := cluster.MigrationStats().InFlight; n != 0 {
		t.Fatalf("%d migrations still in flight after every op succeeded", n)
	}
	// The nodes' own census, and the coordinator's count against it: a
	// batch that failed after applying some entries gave no answer, so
	// the count learns its change only from the census the failure left
	// owed, which the next resume drive takes.
	inv, err := store.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, b := range inv {
		if b.File == "records" {
			stored += b.Size
		}
	}
	if want := records - records/5; stored != want {
		t.Fatalf("records file holds %d records, want %d", stored, want)
	}
	if _, err := cluster.ResumeMigrations(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cluster.inner.Coordinator().File(sdds.FileRecords).Size; got != stored {
		t.Fatalf("coordinator counts %d records, the nodes' census %d", got, stored)
	}

	baseline, err := store.Search(ctx, []byte("BEACON PAYLOAD"), SearchVerified)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(baseline, func(i, j int) bool { return baseline[i] < baseline[j] })
	if len(baseline) != len(wantHits) {
		t.Fatalf("baseline search = %v, want %v", baseline, wantHits)
	}
	for i := range wantHits {
		if baseline[i] != wantHits[i] {
			t.Fatalf("baseline search = %v, want %v", baseline, wantHits)
		}
	}

	// Phase 2 — on a quiet network, kill two nodes two different ways:
	// node 1 crashes outright (unknown to the transport, fails fast),
	// node 4 is partitioned (its sends fail with ErrNodeDown). Both must
	// appear in the failed list — and nothing else.
	dead := []int{1, 4}
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillNode(4); err != nil {
		t.Fatal(err)
	}
	cluster.Faults().Blackout(transport.NodeID(4))

	_, err = store.Search(ctx, []byte("BEACON PAYLOAD"), SearchVerified)
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("Search with dead nodes: %v, want an IncompleteError", err)
	}
	var failed []int
	for _, f := range ie.Failed {
		failed = append(failed, int(f.Node))
	}
	sort.Ints(failed)
	if len(failed) != len(dead) || failed[0] != dead[0] || failed[1] != dead[1] {
		t.Fatalf("failed nodes = %v, want exactly %v", failed, dead)
	}
	for _, r := range ie.RIDs {
		if !slices.Contains(baseline, r) {
			t.Fatalf("partial answer %v holds %d, not in baseline %v", ie.RIDs, r, baseline)
		}
	}

	// Phase 3 — recovery: each dead node restarts under its ID and
	// replays its own journal; traffic resumes.
	cluster.Faults().Restore(transport.NodeID(4))
	for _, id := range dead {
		if err := cluster.ReviveNode(id); err != nil {
			t.Fatalf("reviving node %d: %v", id, err)
		}
	}

	healed, err := store.Search(ctx, []byte("BEACON PAYLOAD"), SearchVerified)
	if err != nil {
		t.Fatalf("search after recovery: %v", err)
	}
	sort.Slice(healed, func(i, j int) bool { return healed[i] < healed[j] })
	if len(healed) != len(baseline) {
		t.Fatalf("post-recovery search = %v, want baseline %v", healed, baseline)
	}
	for i := range baseline {
		if healed[i] != baseline[i] {
			t.Fatalf("post-recovery search = %v, want baseline %v", healed, baseline)
		}
	}
	// Records themselves are intact too, not just the index.
	for _, rid := range wantHits {
		got, err := store.Get(ctx, rid)
		if err != nil {
			t.Fatalf("Get(%d) after recovery: %v", rid, err)
		}
		if want := fmt.Sprintf("RECORD %04d CARRIES BEACON PAYLOAD", rid); string(got) != want {
			t.Fatalf("Get(%d) = %q, want %q", rid, got, want)
		}
	}
}

// TestKillAndReviveRequireMemoryCluster documents the API restriction.
func TestKillAndReviveRequireMemoryCluster(t *testing.T) {
	cluster, err := StartLocalTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.KillNode(0); err == nil {
		t.Error("KillNode on a TCP cluster succeeded")
	}
	if err := cluster.ReviveNode(0); err == nil {
		t.Error("ReviveNode on a TCP cluster succeeded")
	}
}
