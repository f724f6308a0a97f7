package sdds

// A search must not run across a split or merge's commit: the target
// answering before the absorb and the source after the commit would
// each miss the moved records, and the search would under-report with
// a nil error. These tests force exactly that interleaving; the
// coordinator's bracket makes the migration wait for the search.

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wordindex"
)

// searchAcrossMigration runs search against h while migrate moves a
// bucket from node src to node dst. migrate starts only once dst has
// answered the search, and src's search is held until src has received
// the migration's commit, or for holdFor when the migration cannot get
// that far while the search runs. It returns the search's answer once
// the migration is also done, and fails the test if either fails.
func searchAcrossMigration(t *testing.T, h *migHarness, searchOp uint8, src, dst transport.NodeID,
	migrate func(context.Context) error, search func(context.Context) ([]uint64, error)) []uint64 {
	t.Helper()
	const holdFor = 500 * time.Millisecond
	targetAnswered, committed := make(chan struct{}), make(chan struct{})
	var answeredOnce, committedOnce sync.Once
	h.hook.setBefore(func(n transport.NodeID, op uint8) error {
		if n == src && op == searchOp {
			select {
			case <-committed:
			case <-time.After(holdFor):
			}
		}
		return nil
	})
	h.hook.setAfter(func(n transport.NodeID, op uint8) error {
		switch {
		case n == dst && op == searchOp:
			answeredOnce.Do(func() { close(targetAnswered) })
		case n == src && op == opMigrateCommit:
			committedOnce.Do(func() { close(committed) })
		}
		return nil
	})
	defer h.hook.setBefore(nil)
	defer h.hook.setAfter(nil)

	migrated := make(chan error, 1)
	go func() {
		<-targetAnswered
		migrated <- migrate(context.Background())
	}()
	// A cancellable context: with an uncancellable one the in-memory
	// transport fans out serially, and dst would not answer first.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := search(ctx)
	if err != nil {
		t.Fatalf("search across the migration: %v", err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migration: %v", err)
	}
	return got
}

// needleBlobs puts 48 word blobs, each holding the word NEEDLE, into
// FileWords as one bucket, and returns the search token and the RIDs.
func needleBlobs(t *testing.T, h *migHarness) (token []byte, rids []uint64) {
	t.Helper()
	h.c.SetMaxLoad(FileWords, 1<<20)
	ix := wordindex.New(cipherx.KeyFromPassphrase("search-gap-test"), nil)
	for rid := uint64(0); rid < 48; rid++ {
		blob := wordindex.Blob(ix.Tokens([]byte("hay with needle inside")))
		if err := h.c.Put(context.Background(), FileWords, rid, blob); err != nil {
			t.Fatalf("put word blob %d: %v", rid, err)
		}
		rids = append(rids, rid)
	}
	tok := ix.TokenOf([]byte("NEEDLE"))
	return tok[:], rids
}

func wantRIDs(t *testing.T, got, want []uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("search returned %d of %d records: %v, want %v", len(got), len(want), got, want)
	}
}

// TestWordSearchAcrossSplit: bucket 0 on node 0 splits into bucket 1 on
// node 1 while a word search runs.
func TestWordSearchAcrossSplit(t *testing.T) {
	h := newMigHarness(t, 2)
	token, want := needleBlobs(t, h)
	h.c.SetMaxLoad(FileWords, 8)
	got := searchAcrossMigration(t, h, opWordSearch, 0, 1,
		func(ctx context.Context) error { return h.c.coord.split(ctx, FileWords) },
		func(ctx context.Context) ([]uint64, error) { return h.c.WordSearch(ctx, FileWords, token) })
	wantRIDs(t, got, want)
	if n := h.c.coord.File(FileWords).Splits; n != 1 {
		t.Fatalf("splits = %d, want 1", n)
	}
}

// TestWordSearchAcrossMerge: bucket 1 on node 1 merges back into bucket
// 0 on node 0 while a word search runs.
func TestWordSearchAcrossMerge(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	token, want := needleBlobs(t, h)
	h.c.SetMaxLoad(FileWords, 8)
	if err := h.c.coord.split(ctx, FileWords); err != nil {
		t.Fatalf("setup split: %v", err)
	}
	h.c.SetMaxLoad(FileWords, 400)
	got := searchAcrossMigration(t, h, opWordSearch, 1, 0,
		func(ctx context.Context) error { _, err := h.c.coord.migrate(ctx, FileWords, mergePlan); return err },
		func(ctx context.Context) ([]uint64, error) { return h.c.WordSearch(ctx, FileWords, token) })
	wantRIDs(t, got, want)
	if n := h.c.coord.File(FileWords).Merges; n != 1 {
		t.Fatalf("merges = %d, want 1", n)
	}
}

// TestSearchAcrossSplit: the index file's bucket 0 on node 0 splits into
// bucket 1 on node 1 while a substring search runs.
func TestSearchAcrossSplit(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	h.c.SetMaxLoad(FileIndex, 1<<20)
	pl := testPipeline(t, 4, 2, 2)
	corpus := newChaosCorpus()
	for rid := uint64(1); rid <= 40; rid++ {
		recs, err := pl.BuildIndex(rid, corpus.record(rid))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.c.InsertIndexed(ctx, FileIndex, recs, pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("GRIDLOCK"), false)
	if err != nil {
		t.Fatal(err)
	}
	search := func(ctx context.Context) ([]uint64, error) {
		return h.c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	}
	want, err := search(ctx)
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline search = %v, %v; want some hits", want, err)
	}
	h.c.SetMaxLoad(FileIndex, 8)
	got := searchAcrossMigration(t, h, opSearch, 0, 1,
		func(ctx context.Context) error { return h.c.coord.split(ctx, FileIndex) }, search)
	wantRIDs(t, got, want)
	if n := h.c.coord.File(FileIndex).Splits; n != 1 {
		t.Fatalf("splits = %d, want 1", n)
	}
}
