package esdds

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sdds"
	"repro/internal/transport"
)

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 32)); err != nil {
		t.Fatalf("32-byte key rejected: %v", err)
	}
	if _, err := KeyFromBytes(make([]byte, 16)); err == nil {
		t.Fatal("16-byte key accepted")
	}
}

func TestOpenRejectsUnknownMatrixKind(t *testing.T) {
	cluster := NewMemoryCluster(2)
	defer cluster.Close()
	_, err := Open(cluster, KeyFromPassphrase("k"), Config{
		ChunkSize: 4,
		Chunkings: 2,
		Matrix:    MatrixKind(99),
	}, nil)
	if err == nil {
		t.Fatal("unknown matrix kind accepted")
	}
}

func TestSelfHealingAccessors(t *testing.T) {
	cluster := NewMemoryCluster(2, append([]ClusterOption{WithDataDir(t.TempDir())}, newHealClock().selfHealing()...)...)
	defer cluster.Close()
	heal := cluster.SelfHealing()
	if heal == nil {
		t.Fatal("SelfHealing() nil with WithSelfHealing")
	}
	if down := heal.Down(); len(down) != 0 {
		t.Fatalf("Down = %v on a healthy cluster", down)
	}
	if a := heal.Alarm(); a != "" {
		t.Fatalf("Alarm = %q on a healthy cluster", a)
	}

	plain := NewMemoryCluster(1)
	defer plain.Close()
	if plain.SelfHealing() != nil {
		t.Fatal("SelfHealing() non-nil without the option")
	}
}

// TestSelfHealingRequiresDataDir: a cluster hosting its own nodes can
// only revive a node from that node's journal, so self-healing without
// WithDataDir is refused at construction — and an ephemeral node cannot
// be revived by hand either.
func TestSelfHealingRequiresDataDir(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "WithDataDir") {
				t.Fatalf("NewMemoryCluster with self-healing and no data dir: recover() = %v, want a panic naming WithDataDir", r)
			}
		}()
		NewMemoryCluster(2, WithSelfHealing(SelfHealingConfig{}))
	}()
	if _, err := StartLocalTCPCluster(2, WithSelfHealing(SelfHealingConfig{})); err == nil || !strings.Contains(err.Error(), "WithDataDir") {
		t.Fatalf("StartLocalTCPCluster with self-healing and no data dir = %v, want an error naming WithDataDir", err)
	}
	plain := NewMemoryCluster(2)
	defer plain.Close()
	if err := plain.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := plain.ReviveNode(1); err == nil {
		t.Fatal("ReviveNode of an ephemeral node succeeded")
	}
}

// TestDialClusterOptionPlumbing checks construction-time plumbing of a
// dialed cluster: transports dial lazily, so building (with middleware
// and observability) succeeds without live daemons.
func TestDialClusterOptionPlumbing(t *testing.T) {
	c, err := DialCluster(map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"},
		WithObservability(), WithFaultInjection(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics() == nil {
		t.Fatal("dialed cluster missing metrics registry")
	}
	if c.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", c.Nodes())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchErrorUnwrap drives a partial batch failure through the
// public Insert path and checks that the error exposes the per-node
// causes to errors.Is/As via Unwrap.
func TestBatchErrorUnwrap(t *testing.T) {
	cluster := NewMemoryCluster(3, WithFaultInjection(5))
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("k"), Config{
		ChunkSize:       4,
		Chunkings:       2,
		DispersionSites: 2,
		MaxBucketLoad:   4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Spread index slots over all nodes first so a later insert fans out.
	for i := 0; i < 20; i++ {
		if err := store.Insert(ctx, uint64(i), []byte(fmt.Sprintf("WARMUP RECORD %04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Freeze growth: a split reaching the dead node would fail before
	// the batched index scatter gets its chance.
	cluster.inner.SetMaxLoad(sdds.FileRecords, 1<<20)
	cluster.inner.SetMaxLoad(sdds.FileIndex, 1<<20)

	cluster.Faults().Blackout(2)
	var batchErr *sdds.BatchError
	for i := 20; i < 60 && batchErr == nil; i++ {
		// An insert is one write round: any failure is a BatchError.
		err := store.Insert(ctx, uint64(i), []byte(fmt.Sprintf("BLACKOUT RECORD %04d", i)))
		if err != nil && !errors.As(err, &batchErr) {
			t.Fatalf("insert %d failed without a BatchError: %v", i, err)
		}
	}
	if batchErr == nil {
		t.Fatal("no insert produced a BatchError with node 2 blacked out")
	}
	if len(batchErr.Failures) == 0 {
		t.Fatal("BatchError carries no failures")
	}
	unwrapped := batchErr.Unwrap()
	if len(unwrapped) != len(batchErr.Failures) {
		t.Fatalf("Unwrap returned %d errors for %d failures", len(unwrapped), len(batchErr.Failures))
	}
	if !errors.Is(batchErr, transport.ErrNodeDown) {
		t.Fatalf("errors.Is(batchErr, ErrNodeDown) = false; failures: %v", unwrapped)
	}
}

// TestSearchReportsFailedNodes pins the failed-node outcome: Search with
// a dead node fails with an IncompleteError naming exactly that node.
func TestSearchReportsFailedNodes(t *testing.T) {
	cluster := NewMemoryCluster(3)
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("k"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := store.Insert(ctx, uint64(i), []byte(fmt.Sprintf("DETAIL RECORD %04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	rids, err := store.Search(ctx, []byte("DETAIL RECORD"), SearchFast)
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("Search with a dead node = %v, %v; want an IncompleteError", rids, err)
	}
	if len(ie.Failed) != 1 || ie.Failed[0].Node != 1 {
		t.Fatalf("Failed = %v, want node 1", ie.Failed)
	}
	if !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("errors.Is(err, ErrUnknownNode) = false: %v", err)
	}
}
