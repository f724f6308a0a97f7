// Quickstart: open an encrypted searchable store on a simulated
// 4-node multicomputer, insert records, and search them by content —
// the minimal end-to-end use of the public esdds API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/esdds"
)

func main() {
	// A simulated multicomputer: 4 storage nodes in this process. All
	// distributed machinery (LH* addressing, forwarding, splits,
	// scatter-gather search) runs exactly as over a network.
	cluster := esdds.NewMemoryCluster(4)
	defer cluster.Close()

	// All cryptographic keys derive from this client-held master key;
	// the storage nodes never see it.
	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("quickstart-demo"), esdds.Config{
		ChunkSize:       4, // index chunks of 4 symbols (Stage 1)
		Chunkings:       2, // two shifted chunkings per record (§2.5)
		DispersionSites: 2, // each chunk split over 2 sites (Stage 3)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	people := map[uint64]string{
		4154090007: "SCHWARZ THOMAS",
		4154090008: "TSUI PETER",
		4154090009: "LITWIN WITOLD",
		4154090010: "SCHWARTZ ANNA MARIA",
	}
	for rid, name := range people {
		if err := store.Insert(ctx, rid, []byte(name)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted %d records (minimum searchable substring: %d symbols)\n",
		len(people), store.MinQueryLen())

	// Substring search runs in parallel on every node, over ciphertext.
	recs, err := store.SearchRecords(ctx, []byte("SCHWARZ"), esdds.SearchFast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsearch \"SCHWARZ\":")
	for _, r := range recs {
		fmt.Printf("  %d  %s\n", r.RID, r.Content)
	}

	// Key-based lookup fetches and decrypts one record.
	content, err := store.Get(ctx, 4154090009)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nget 4154090009: %s\n", content)

	// Deleting removes the record and all its index pieces.
	if err := store.Delete(ctx, 4154090008); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Get(ctx, 4154090008); err == esdds.ErrNotFound {
		fmt.Println("delete 4154090008: gone")
	}
}
