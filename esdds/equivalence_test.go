package esdds

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// withLinearScan disables the node-side posting index on every node the
// cluster hosts, making every search a full linear scan over bucket
// contents — the reference behavior the posting index is differentially
// tested against (Node.DisablePostingIndex).
func withLinearScan() ClusterOption {
	return func(c *clusterConfig) { c.linearScan = true }
}

// TestPostingIndexEquivalence is the end-to-end differential test of
// the node-side posting index: a posting-indexed cluster and a
// linear-scan cluster (withLinearScan) run the same randomized
// workload — inserts forcing splits, deletes forcing merges, a node
// crash recovered by replaying its journal — and must answer every
// query identically in every search mode at every stage.
func TestPostingIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20060410))
	ctx := context.Background()
	cfg := Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 6, // small buckets: plenty of splits and merges
	}

	posting := NewMemoryCluster(4, WithDataDir(t.TempDir()))
	defer posting.Close()
	linear := NewMemoryCluster(4, WithDataDir(t.TempDir()), withLinearScan())
	defer linear.Close()

	ps, err := Open(posting, KeyFromPassphrase("equiv"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Open(linear, KeyFromPassphrase("equiv"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "
	randomContent := func() []byte {
		n := 10 + rng.Intn(30)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}

	contents := map[uint64][]byte{}
	for rid := uint64(1); rid <= 90; rid++ {
		c := randomContent()
		contents[rid] = c
		if err := ps.Insert(ctx, rid, c); err != nil {
			t.Fatal(err)
		}
		if err := ls.Insert(ctx, rid, c); err != nil {
			t.Fatal(err)
		}
	}

	queries := func() [][]byte {
		qs := [][]byte{[]byte("QQQQQQQQ")} // near-certain miss
		var rids []uint64
		for rid := range contents {
			rids = append(rids, rid)
		}
		sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
		for _, rid := range rids {
			c := contents[rid]
			if len(qs) >= 10 || len(c) < 9 {
				continue
			}
			off := rng.Intn(len(c) - 8)
			qs = append(qs, c[off:off+8])
		}
		return qs
	}

	compare := func(stage string) {
		t.Helper()
		for _, q := range queries() {
			for _, mode := range []SearchMode{SearchFast, SearchVerified, SearchExact} {
				got, err := ps.Search(ctx, q, mode)
				if err != nil {
					t.Fatalf("%s: posting search %q/%v: %v", stage, q, mode, err)
				}
				want, err := ls.Search(ctx, q, mode)
				if err != nil {
					t.Fatalf("%s: linear search %q/%v: %v", stage, q, mode, err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					t.Fatalf("%s: query %q mode %v: posting %v, linear %v", stage, q, mode, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: query %q mode %v: posting %v, linear %v", stage, q, mode, got, want)
					}
				}
			}
		}
	}

	compare("after inserts")

	// Delete most of the corpus — enough to shrink the file — and
	// confirm the index tracked record removal and bucket merges.
	var rids []uint64
	for rid := range contents {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids[:70] {
		if err := ps.Delete(ctx, rid); err != nil {
			t.Fatal(err)
		}
		if err := ls.Delete(ctx, rid); err != nil {
			t.Fatal(err)
		}
		delete(contents, rid)
	}
	compare("after deletes")

	// Crash-and-recover both clusters: node images replayed from
	// checkpoint+journal must rebuild their posting indexes (and the
	// linear cluster must stay linear through revival).
	for _, cl := range []*Cluster{posting, linear} {
		if err := cl.KillNode(1); err != nil {
			t.Fatal(err)
		}
		if err := cl.ReviveNode(1); err != nil {
			t.Fatal(err)
		}
	}
	compare("after crash recovery")
}
