package esdds

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/transport"
)

// chaosRetryPolicy keeps backoff pauses in the microsecond range so the
// suite stays fast while still exercising every retry code path.
func chaosRetryPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// TestClusterSurvivesNodeFailuresEndToEnd is the acceptance scenario for
// the resilience stack, over the public API only:
//
//  1. a seeded workload runs against a lossy network with zero
//     client-visible errors (retries mask the injected drops),
//  2. two nodes are killed mid-operation; Search fails with an
//     IncompleteError that names exactly the dead nodes and carries no
//     spurious hit,
//  3. each dead node is revived from its own journal, after which a
//     full Search returns the pre-failure result set.
func TestClusterSurvivesNodeFailuresEndToEnd(t *testing.T) {
	const (
		nodes = 6
		seed  = 20060410
	)
	cluster := NewMemoryCluster(nodes,
		WithDataDir(t.TempDir()),
		WithFaultInjection(seed),
		WithRetry(chaosRetryPolicy()),
		WithRetrySeed(seed),
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

	// Phase 1 — workload through a lossy, slow network. Drops and delays
	// only; duplicate delivery stays off because inserts trigger bucket
	// splits, which are not idempotent.
	cluster.Faults().SetDefault(transport.Fault{
		Drop:      0.15,
		DelayProb: 0.1,
		Delay:     100 * time.Microsecond,
	})
	var wantHits []uint64
	for rid := uint64(1); rid <= 60; rid++ {
		content := fmt.Sprintf("RECORD %04d ROUTINE TRAFFIC", rid)
		if rid%3 == 0 {
			content = fmt.Sprintf("RECORD %04d CARRIES BEACON PAYLOAD", rid)
			wantHits = append(wantHits, rid)
		}
		if err := store.Insert(ctx, rid, []byte(content)); err != nil {
			t.Fatalf("Insert(%d) not masked by retries: %v", rid, err)
		}
	}
	var dropped, retries uint64
	for _, st := range cluster.Faults().Stats() {
		dropped += st.Dropped
	}
	for _, st := range cluster.RetryStats() {
		retries += st.Retries
	}
	if dropped == 0 || retries == 0 {
		t.Fatalf("chaos did not engage: dropped=%d retries=%d", dropped, retries)
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
	// node 4 is partitioned (sends time out through retry exhaustion).
	// Both must appear in the failed list — and nothing else.
	cluster.Faults().ClearFaults()
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
