// Securecluster: the full network stack on loopback TCP. Starts real
// esdds-node daemons in-process, opens a store over sockets, and walks
// through the paper's Figure-3 flow: strong encryption at the record
// store, index pieces dispersed over sites, parallel encrypted search,
// and a demonstration that a curious node (or a client with the wrong
// key) learns nothing.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/esdds"
)

func main() {
	cluster, err := esdds.StartLocalTCPCluster(5)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("started %d TCP storage nodes on loopback\n", cluster.Nodes())

	key := esdds.KeyFromPassphrase("secure-cluster-demo")
	store, err := esdds.Open(cluster, key, esdds.Config{
		ChunkSize:       4,
		Chunkings:       2,
		DispersionSites: 4, // Figure 3's layout: each chunking over 4 sites
		Matrix:          esdds.MatrixRandom,
		MaxBucketLoad:   8, // small buckets force visible file growth
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	people := []string{
		"SCHWARZ THOMAS", "TSUI PETER", "LITWIN WITOLD",
		"WONG MEI LING", "MARTINEZ MARIA", "ANDERSON JOHN",
		"CHAN WAI MING", "NGUYEN TUAN ANH", "JOHNSON KAREN",
		"LEE MING", "GARCIA CARMEN", "RODRIGUEZ JUAN",
		"CHEUNG SIU WAI", "HERNANDEZ ELENA", "OBRIEN SEAN",
		"KIM MIN", "TRAN MINH", "LOPEZ ROSARIO",
		"WILSON MARGARET", "THOMPSON DANIEL",
	}
	for i, name := range people {
		if err := store.Insert(ctx, uint64(4154090000+i), []byte(name)); err != nil {
			log.Fatal(err)
		}
	}
	st := store.Stats()
	fmt.Printf("inserted %d records over TCP; record file %d buckets (%d splits), index file %d buckets (%d splits), %d IAMs\n\n",
		len(people), st.RecordBuckets, st.RecordSplits, st.IndexBuckets, st.IndexSplits, st.IAMs)

	fmt.Println("parallel encrypted search for \"MARTINEZ\" across all nodes:")
	recs, err := store.SearchRecords(ctx, []byte("MARTINEZ"), esdds.SearchExact)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("  %d  %s\n", r.RID, r.Content)
	}

	// What a node owner — or any client without the key — can do:
	// nothing. A store opened with a different key cannot decrypt
	// records, and its queries encrypt differently, so they match
	// nothing.
	mallory, err := esdds.Open(cluster, esdds.KeyFromPassphrase("not-the-key"), esdds.Config{
		ChunkSize:       4,
		Chunkings:       2,
		DispersionSites: 4,
		Matrix:          esdds.MatrixRandom,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mallory.Get(ctx, 4154090004); err != nil {
		fmt.Printf("\nwrong-key Get: %v\n", err)
	}
	rids, err := mallory.Search(ctx, []byte("MARTINEZ"), esdds.SearchFast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrong-key search for MARTINEZ: %d hit(s)\n", len(rids))
}
