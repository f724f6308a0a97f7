package esdds_test

import (
	"context"
	"fmt"
	"log"

	"repro/esdds"
)

// Example shows the minimal store lifecycle: open over a simulated
// multicomputer, insert, search by content, fetch by key.
func Example() {
	cluster := esdds.NewMemoryCluster(4)
	defer cluster.Close()

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("example"), esdds.Config{
		ChunkSize: 4,
		Chunkings: 2,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	store.Insert(ctx, 4154090007, []byte("SCHWARZ THOMAS"))
	store.Insert(ctx, 4154090008, []byte("LITWIN WITOLD"))

	recs, err := store.SearchRecords(ctx, []byte("SCHWARZ"), esdds.SearchFast)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("%d %s\n", r.RID, r.Content)
	}
	// Output: 4154090007 SCHWARZ THOMAS
}

// ExampleStore_SearchWord demonstrates the exact whole-word index (the
// [SWP00] adaptation): no minimum length, no false positives.
func ExampleStore_SearchWord() {
	cluster := esdds.NewMemoryCluster(2)
	defer cluster.Close()

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("example"), esdds.Config{
		ChunkSize:  4,
		Chunkings:  2,
		WordSearch: true,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	store.Insert(ctx, 1, []byte("YU LI"))
	store.Insert(ctx, 2, []byte("YUAN MING")) // contains YU as prefix, not word

	rids, err := store.SearchWord(ctx, []byte("YU"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rids)
	// Output: [1]
}

// ExampleStore_Search contrasts the three verification modes on a
// record set with a near-miss.
func ExampleStore_Search() {
	cluster := esdds.NewMemoryCluster(3)
	defer cluster.Close()

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("example"), esdds.Config{
		ChunkSize: 4,
		Chunkings: 4, // basic scheme: all modes available
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	store.Insert(ctx, 10, []byte("MARTINEZ MARIA"))
	store.Insert(ctx, 11, []byte("MARTINSON MARK"))

	for _, mode := range []esdds.SearchMode{esdds.SearchFast, esdds.SearchExact} {
		rids, err := store.Search(ctx, []byte("MARTINEZ"), mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %v\n", mode, rids)
	}
	// Output:
	// fast: [10]
	// exact: [10]
}
