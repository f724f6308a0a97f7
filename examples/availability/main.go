// Availability: the failure contract end to end. A six-node in-process
// multicomputer runs an encrypted workload over a lossy network (seeded
// fault injection): an insert that hits a drop fails, and the caller
// re-runs it until it completes. Every node journals its mutations to a checksummed
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
	// sends are dropped, 10% delayed. Nothing below the caller re-sends:
	// an insert that loses a send fails, and re-running it completes it
	// (the insert's puts are idempotent).
	cluster.Faults().SetDefault(transport.Fault{
		Drop:      0.15,
		DelayProb: 0.10,
		Delay:     200 * time.Microsecond,
	})
	entries := phonebook.Generate(150, seed)
	var reruns int
	for _, e := range entries {
		runs, err := insert(ctx, store, e.RID(), []byte(e.Name))
		if err != nil && reruns == 0 {
			fmt.Printf("insert of rid %d failed: %v\n  re-run %d time(s), it completed\n", e.RID(), err, runs-1)
		}
		reruns += runs - 1
	}
	var dropped uint64
	for _, st := range cluster.Faults().Stats() {
		dropped += st.Dropped
	}
	fmt.Printf("loaded %d sealed records over a lossy network: %d sends dropped, %d re-runs\n",
		len(entries), dropped, reruns)
	cluster.Faults().ClearFaults()

	query := []byte(entries[0].Name[:7])
	baseline, err := store.Search(ctx, query, esdds.SearchVerified)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline search %q: %d hits\n\n", query, len(baseline))

	// Phase 2 — disaster on a quiet network: node 1 crashes outright,
	// node 4 is partitioned. Both lose their in-memory state; what their
	// journals made durable is what a revival finds.
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

// insert runs store.Insert until it succeeds, returning how many runs
// that took and the first run's error.
func insert(ctx context.Context, store *esdds.Store, rid uint64, content []byte) (runs int, firstErr error) {
	for runs = 1; ; runs++ {
		err := store.Insert(ctx, rid, content)
		if err == nil {
			return runs, firstErr
		}
		if runs == 1 {
			firstErr = err
		}
		if runs == 20 {
			log.Fatalf("insert of rid %d still failing after %d runs: %v", rid, runs, err)
		}
	}
}
