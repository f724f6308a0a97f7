// Phonebook: the paper's motivating workload at scale. Loads a
// synthetic SF directory into an encrypted store with Stage-2 lossy
// encoding, searches surnames over ciphertext, and reports the
// false-positive behaviour the paper's Tables 4/5 study — including how
// short Asian surnames (YU, WU, LEE, …) dominate the false positives
// and how client-side filtering removes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/esdds"
	"repro/internal/phonebook"
)

func main() {
	var (
		n     = flag.Int("n", 20000, "directory size")
		nodes = flag.Int("nodes", 8, "storage nodes")
		codes = flag.Int("codes", 16, "Stage-2 symbol encodings")
	)
	flag.Parse()

	entries := phonebook.Generate(*n, 20060403)
	corpus := phonebook.Names(entries)

	cluster := esdds.NewMemoryCluster(*nodes)
	defer cluster.Close()
	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("phonebook"), esdds.Config{
		ChunkSize:   2,
		Chunkings:   2,
		SymbolCodes: *codes, // lossy compression → frequency flattening
	}, corpus)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	start := time.Now()
	for _, e := range entries {
		if err := store.Insert(ctx, e.RID(), []byte(e.Name)); err != nil {
			log.Fatal(err)
		}
	}
	loadTime := time.Since(start)
	st := store.Stats()
	fmt.Printf("loaded %d records in %v (%.0f rec/s)\n", *n, loadTime.Round(time.Millisecond),
		float64(*n)/loadTime.Seconds())
	fmt.Printf("record file: %d buckets, index file: %d buckets across %d nodes\n\n",
		st.RecordBuckets, st.IndexBuckets, *nodes)

	queries := []string{"SCHWARZ", "MARTINEZ", "NGUYEN", "WONG", "LEE", "YU"}
	fmt.Printf("%-10s %8s %8s %8s %10s\n", "query", "raw", "true", "FPs", "latency")
	for _, q := range queries {
		if len(q) < store.MinQueryLen() {
			fmt.Printf("%-10s   (below minimum query length %d)\n", q, store.MinQueryLen())
			continue
		}
		t0 := time.Now()
		raw, err := store.Search(ctx, []byte(q), esdds.SearchFast)
		if err != nil {
			log.Fatal(err)
		}
		lat := time.Since(t0)
		// SearchRecords decrypts the hits and drops the false positives.
		exact, err := store.SearchRecords(ctx, []byte(q), esdds.SearchFast)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8d %8d %8d %10v\n", q, len(raw), len(exact), len(raw)-len(exact),
			lat.Round(time.Microsecond))
	}

	fmt.Println("\nclient-side filtering gives exact results:")
	recs, err := store.SearchRecords(ctx, []byte("SCHWARZ"), esdds.SearchFast)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range recs {
		if i >= 5 {
			fmt.Printf("  … and %d more\n", len(recs)-5)
			break
		}
		fmt.Printf("  %d  %s\n", r.RID, r.Content)
	}
	fmt.Printf("  %d exact hit(s) for SCHWARZ\n", len(recs))
}
