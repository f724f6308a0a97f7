package sdds

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/transport"
)

// guardedCluster builds an n-node memory cluster plus the plumbing a
// recovery scenario needs: kill (unregister) and revive (fresh empty
// node) handles.
type guardedCluster struct {
	cluster *Cluster
	mem     *transport.Memory
	place   *Placement
	tr      transport.Transport
	nodes   map[transport.NodeID]*Node // originals, for partition-heal scenarios
}

func newGuardedCluster(t *testing.T, n int) *guardedCluster {
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
	nodes := make(map[transport.NodeID]*Node, n)
	for _, id := range ids {
		node := NewNode(id, mem, place)
		nodes[id] = node
		mem.Register(id, node.Handler())
	}
	return &guardedCluster{cluster: NewCluster(mem, place), mem: mem, place: place, tr: mem, nodes: nodes}
}

func (g *guardedCluster) kill(ids ...transport.NodeID) {
	for _, id := range ids {
		g.mem.Unregister(id)
	}
}

// healPartition re-registers the original node objects — the node comes
// back with its state intact, as after a healed network partition (vs
// reviveEmpty, which models a fresh replacement site).
func (g *guardedCluster) healPartition(ids ...transport.NodeID) {
	for _, id := range ids {
		g.mem.Register(id, g.nodes[id].Handler())
	}
}

func (g *guardedCluster) reviveEmpty(ids ...transport.NodeID) {
	for _, id := range ids {
		node := NewNode(id, g.tr, g.place)
		g.mem.Register(id, node.Handler())
	}
}

// loadRecords inserts count records and returns the values by key.
func loadRecords(t *testing.T, c *Cluster, count int) map[uint64][]byte {
	t.Helper()
	ctx := context.Background()
	c.SetMaxLoad(FileRecords, 8)
	want := make(map[uint64][]byte, count)
	for k := uint64(0); k < uint64(count); k++ {
		v := []byte(fmt.Sprintf("value-%06d-%s", k, strings.Repeat("x", int(k%13))))
		if err := c.Put(ctx, FileRecords, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	return want
}

func verifyRecords(t *testing.T, c *Cluster, want map[uint64][]byte) {
	t.Helper()
	ctx := context.Background()
	for k, v := range want {
		got, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !ok || string(got) != string(v) {
			t.Fatalf("Get(%d) = %q %v, want %q — record lost in recovery", k, got, ok, v)
		}
	}
}

// TestGuardianRecoversAnyFLeqKFailures is the LH*RS availability claim
// at node granularity: with k parity shards, every failure set of size
// f <= k is recoverable with zero record loss.
func TestGuardianRecoversAnyFLeqKFailures(t *testing.T) {
	const n, k = 5, 2
	ctx := context.Background()
	// Try every failure set of size 1 and 2 over the 5 nodes.
	var failureSets [][]transport.NodeID
	for i := 0; i < n; i++ {
		failureSets = append(failureSets, []transport.NodeID{transport.NodeID(i)})
		for j := i + 1; j < n; j++ {
			failureSets = append(failureSets, []transport.NodeID{transport.NodeID(i), transport.NodeID(j)})
		}
	}
	for _, dead := range failureSets {
		gc := newGuardedCluster(t, n)
		want := loadRecords(t, gc.cluster, 160)
		guard, err := NewGuardian(gc.tr, gc.place, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := guard.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if ok, err := guard.Scrub(); err != nil || !ok {
			t.Fatalf("scrub after sync: %v %v", ok, err)
		}

		gc.kill(dead...)
		// Dead nodes are really dead: operations touching them fail.
		deadHit := false
		for kk := uint64(0); kk < 160 && !deadHit; kk++ {
			if _, _, err := gc.cluster.Get(ctx, FileRecords, kk); err != nil {
				deadHit = true
			}
		}
		if !deadHit {
			t.Fatalf("killing %v did not disturb any read", dead)
		}

		gc.reviveEmpty(dead...)
		if err := guard.Recover(ctx, dead); err != nil {
			t.Fatalf("recover %v: %v", dead, err)
		}
		verifyRecords(t, gc.cluster, want)
	}
}

// TestGuardianFailsLoudlyBeyondK: f = k+1 failures exceed the MDS bound
// and must be rejected with an explicit error, not silent corruption.
func TestGuardianFailsLoudlyBeyondK(t *testing.T) {
	const n, k = 5, 2
	ctx := context.Background()
	gc := newGuardedCluster(t, n)
	loadRecords(t, gc.cluster, 80)
	guard, err := NewGuardian(gc.tr, gc.place, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	dead := []transport.NodeID{0, 2, 4} // k+1 = 3 failures
	gc.kill(dead...)
	gc.reviveEmpty(dead...)
	err = guard.Recover(ctx, dead)
	if err == nil {
		t.Fatal("recovery of k+1 failures succeeded — MDS bound violated")
	}
	if !strings.Contains(err.Error(), "recover") {
		t.Errorf("err = %v", err)
	}
}

// TestGuardianRecoveryPointIsLastSync: writes after the last Sync are
// not recoverable (documented LH*RS semantics with explicit sync), but
// everything up to the sync point is.
func TestGuardianRecoveryPointIsLastSync(t *testing.T) {
	const n, k = 4, 1
	ctx := context.Background()
	gc := newGuardedCluster(t, n)
	want := loadRecords(t, gc.cluster, 100)
	guard, err := NewGuardian(gc.tr, gc.place, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// A write after the sync point, landing on the node we will kill.
	lateKey := uint64(100)
	if err := gc.cluster.Put(ctx, FileRecords, lateKey, []byte("late")); err != nil {
		t.Fatal(err)
	}
	addr := gc.cluster.Image(FileRecords).Address(lateKey)
	victim := gc.place.NodeOf(addr)

	gc.kill(victim)
	gc.reviveEmpty(victim)
	if err := guard.Recover(ctx, []transport.NodeID{victim}); err != nil {
		t.Fatal(err)
	}
	verifyRecords(t, gc.cluster, want)
	if _, ok, err := gc.cluster.Get(ctx, FileRecords, lateKey); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("write after sync point survived — recovery point is wrong")
	}
}

// TestGuardianRequiresSyncBeforeRecover and rejects foreign nodes.
func TestGuardianPreconditions(t *testing.T) {
	gc := newGuardedCluster(t, 3)
	guard, err := NewGuardian(gc.tr, gc.place, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Recover before any Sync must fail with the dedicated sentinel so a
	// repair supervisor can distinguish "nothing to restore" from a real
	// parity failure.
	if err := guard.Recover(ctx, []transport.NodeID{0}); !errors.Is(err, ErrNeverSynced) {
		t.Errorf("recover before any sync: err = %v, want ErrNeverSynced", err)
	}
	if guard.Synced() {
		t.Error("Synced() true before any sync")
	}
	if err := guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := guard.Recover(ctx, []transport.NodeID{17}); err == nil {
		t.Error("recover of unprotected node succeeded")
	}
	if err := guard.Recover(ctx, nil); err != nil {
		t.Errorf("empty recover should be a no-op: %v", err)
	}
}

// TestGuardianSyncFailsOnUnreachableNode: syncing around a hole would
// silently stale that node's recovery point; it must fail instead.
func TestGuardianSyncFailsOnUnreachableNode(t *testing.T) {
	gc := newGuardedCluster(t, 3)
	loadRecords(t, gc.cluster, 30)
	guard, err := NewGuardian(gc.tr, gc.place, 1)
	if err != nil {
		t.Fatal(err)
	}
	gc.kill(1)
	if err := guard.Sync(context.Background()); err == nil {
		t.Error("sync with unreachable node succeeded")
	}
}

// TestGuardianMultiFileRecovery: both the record file and the index
// file live on the same nodes; recovery must restore every file.
func TestGuardianMultiFileRecovery(t *testing.T) {
	const n, k = 4, 2
	ctx := context.Background()
	gc := newGuardedCluster(t, n)
	want := loadRecords(t, gc.cluster, 60)
	// Populate a second file too.
	for kk := uint64(0); kk < 40; kk++ {
		if err := gc.cluster.Put(ctx, FileIndex, kk<<3, []byte{byte(kk)}); err != nil {
			t.Fatal(err)
		}
	}
	guard, err := NewGuardian(gc.tr, gc.place, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	dead := []transport.NodeID{0, 3}
	gc.kill(dead...)
	gc.reviveEmpty(dead...)
	if err := guard.Recover(ctx, dead); err != nil {
		t.Fatal(err)
	}
	verifyRecords(t, gc.cluster, want)
	for kk := uint64(0); kk < 40; kk++ {
		v, ok, err := gc.cluster.Get(ctx, FileIndex, kk<<3)
		if err != nil || !ok || v[0] != byte(kk) {
			t.Fatalf("index file record %d lost: %v %v %v", kk, v, ok, err)
		}
	}
}
