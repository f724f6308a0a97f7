package esdds

import (
	"context"
	"fmt"
	"testing"
)

// TestSoakClusterOptionsPlumbing: the soak option set must yield a
// cluster with a live metrics registry that counts its traffic.
func TestSoakClusterOptionsPlumbing(t *testing.T) {
	cluster := NewMemoryCluster(3, SoakClusterOptions()...)
	defer cluster.Close()
	if cluster.Metrics() == nil {
		t.Fatal("soak cluster has no metrics registry")
	}
	store, err := Open(cluster, KeyFromPassphrase("k"), Config{ChunkSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(context.Background(), 1, []byte("SMITH JOHN%%%STREET%5551234$")); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Metrics().CounterValue("cluster_puts_total"); got != 1 {
		t.Fatalf("cluster_puts_total = %d after one insert, want 1", got)
	}
}

// TestInventoryTracksGrowth: the server-side census must agree with
// the client's view — every record accounted for in some bucket, file
// growth spread over more than one node once splits have run.
func TestInventoryTracksGrowth(t *testing.T) {
	const records = 60
	cluster := NewMemoryCluster(4, SoakClusterOptions()...)
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("k"), Config{
		ChunkSize:     4,
		MaxBucketLoad: 8, // force splits with few records
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid := uint64(1); rid <= records; rid++ {
		content := []byte(fmt.Sprintf("SMITH JOHN%%%%%%A STREET%%%07d$", rid))
		if err := store.Insert(ctx, rid, content); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
	}
	if store.Stats().RecordSplits == 0 {
		t.Fatal("workload produced no splits; inventory test needs growth")
	}

	inv, err := store.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	nodes := map[int]bool{}
	recBuckets := 0
	for _, b := range inv {
		if b.File != "records" {
			continue
		}
		recBuckets++
		total += b.Size
		nodes[b.Node] = true
	}
	if total != records {
		t.Fatalf("inventory accounts for %d records, want %d", total, records)
	}
	if uint64(recBuckets) != store.Stats().RecordBuckets {
		t.Fatalf("inventory sees %d record buckets, client image says %d",
			recBuckets, store.Stats().RecordBuckets)
	}
	if len(nodes) < 2 {
		t.Fatalf("file grew onto %d node(s), want spread after %d splits",
			len(nodes), store.Stats().RecordSplits)
	}
}
