// Availability: the full resilience stack end to end. A six-node
// in-process multicomputer runs an encrypted workload over a lossy
// network (seeded fault injection; retries with exponential backoff
// mask every drop). Every node journals its mutations to a checksummed
// write-ahead log under a temporary data dir. Two nodes die mid-flight,
// search returns an IncompleteError that names exactly the dead sites
// and carries the survivors' hits, and each dead node is revived by
// replaying its own journal — back to every write it acknowledged —
// driven through the public API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"repro/esdds"
	"repro/internal/phonebook"
	"repro/internal/transport"
)

func main() {
	const (
		nodes = 6
		seed  = 42
	)
	dataDir, err := os.MkdirTemp("", "esdds-availability-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	cluster := esdds.NewMemoryCluster(nodes,
		esdds.WithDataDir(dataDir),
		esdds.WithFaultInjection(seed),
		esdds.WithRetry(transport.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   500 * time.Microsecond,
			MaxDelay:    5 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.2,
		}),
		esdds.WithRetrySeed(seed),
	)
	defer cluster.Close()

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("availability-demo"), esdds.Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 8,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Phase 1 — insert sealed records through a lossy network: 15% of
	// sends are dropped, 10% delayed. The retry middleware masks all of
	// it; the client sees zero errors.
	cluster.Faults().SetDefault(transport.Fault{
		Drop:      0.15,
		DelayProb: 0.10,
		Delay:     200 * time.Microsecond,
	})
	entries := phonebook.Generate(150, seed)
	for _, e := range entries {
		if err := store.Insert(ctx, e.RID(), []byte(e.Name)); err != nil {
			log.Fatalf("insert through lossy network failed: %v", err)
		}
	}
	var dropped, retries uint64
	for _, st := range cluster.Faults().Stats() {
		dropped += st.Dropped
	}
	for _, st := range cluster.RetryStats() {
		retries += st.Retries
	}
	fmt.Printf("loaded %d sealed records over a lossy network: %d sends dropped, %d retries, 0 client errors\n",
		len(entries), dropped, retries)

	query := []byte(entries[0].Name[:7])
	baseline, err := store.Search(ctx, query, esdds.SearchVerified)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline search %q: %d hits\n\n", query, len(baseline))

	// Phase 2 — disaster on a quiet network: node 1 crashes outright,
	// node 4 is partitioned. Both lose their in-memory state; what their
	// journals made durable is what a revival finds.
	cluster.Faults().ClearFaults()
	fmt.Println("*** nodes lost: 1 (crashed), 4 (partitioned) ***")
	if err := cluster.KillNode(1); err != nil {
		log.Fatal(err)
	}
	if err := cluster.KillNode(4); err != nil {
		log.Fatal(err)
	}
	cluster.Faults().Blackout(4)

	// A search that some nodes cannot answer fails with an
	// IncompleteError; a best-effort caller takes the survivors' hits
	// from it.
	_, err = store.Search(ctx, query, esdds.SearchVerified)
	var ie *esdds.IncompleteError
	if !errors.As(err, &ie) {
		log.Fatalf("search with two dead nodes: %v, want an IncompleteError", err)
	}
	var failed []int
	for _, f := range ie.Failed {
		failed = append(failed, int(f.Node))
	}
	fmt.Printf("best-effort search: %d/%d hits, failed nodes reported: %v\n", len(ie.RIDs), len(baseline), failed)

	// Phase 3 — recovery: each dead node restarts under its ID and
	// replays its own checkpoint+journal.
	cluster.Faults().Restore(4)
	fmt.Println()
	for _, id := range failed {
		if err := cluster.ReviveNode(id); err != nil {
			log.Fatal(err)
		}
		rec, _ := cluster.NodeRecovery(id)
		fmt.Printf("node %d revived: %s from its own journal\n", id, rec.Outcome)
	}
	healed, err := store.Search(ctx, query, esdds.SearchVerified)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full search after recovery: %d hits (baseline %d)\n", len(healed), len(baseline))

	// Prove the payloads survived end to end: decrypt recovered records.
	fmt.Println("\ndecrypting recovered records:")
	for i, e := range entries[:5] {
		got, err := store.Get(ctx, e.RID())
		if err != nil {
			log.Fatalf("rid %d: %v", e.RID(), err)
		}
		fmt.Printf("  %d: %s\n", i, got)
	}
}
