package esdds

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/phonebook"
	"repro/internal/sdds"
)

func openMem(t *testing.T, cfg Config, corpus [][]byte) *Store {
	t.Helper()
	cluster := NewMemoryCluster(4)
	t.Cleanup(func() { cluster.Close() })
	store, err := Open(cluster, KeyFromPassphrase("test"), cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestOpenValidation(t *testing.T) {
	cluster := NewMemoryCluster(2)
	defer cluster.Close()
	key := KeyFromPassphrase("k")
	cases := []Config{
		{ChunkSize: 0},
		{ChunkSize: 4, Chunkings: 3},
		{ChunkSize: 2, SymbolCodes: 8, ChunkCodes: 8},
		{ChunkSize: 2, DispersionSites: 3}, // 16 bits, K=3 does not divide
		{ChunkSize: 4, Matrix: MatrixKind(77)},
	}
	for i, cfg := range cases {
		if _, err := Open(cluster, key, cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Stage-2 without corpus.
	if _, err := Open(cluster, key, Config{ChunkSize: 2, SymbolCodes: 8}, nil); !errors.Is(err, ErrNeedTrainingCorpus) {
		t.Errorf("err = %v, want ErrNeedTrainingCorpus", err)
	}
	if _, err := Open(cluster, key, Config{ChunkSize: 2, ChunkCodes: 8}, nil); !errors.Is(err, ErrNeedTrainingCorpus) {
		t.Errorf("err = %v, want ErrNeedTrainingCorpus", err)
	}
}

func TestInsertGetDelete(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 2}, nil)
	ctx := context.Background()
	content := []byte("SCHWARZ THOMAS J")
	if err := store.Insert(ctx, 7, content); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("Get = %q", got)
	}
	if _, err := store.Get(ctx, 8); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing record: err = %v", err)
	}
	if err := store.Delete(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(ctx, 7); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted record still readable: %v", err)
	}
	if err := store.Delete(ctx, 7); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: err = %v", err)
	}
}

func TestSearchEndToEnd(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 4, DispersionSites: 4}, nil)
	ctx := context.Background()
	names := map[uint64]string{
		1: "SCHWARZ THOMAS",
		2: "TSUI PETER",
		3: "LITWIN WITOLD",
		4: "SCHWARTZ ANNA",
		5: "MARTINEZ MARIA",
	}
	for rid, name := range names {
		if err := store.Insert(ctx, rid, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []SearchMode{SearchFast, SearchVerified, SearchExact} {
		rids, err := store.Search(ctx, []byte("SCHWARZ"), mode)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		found := false
		for _, r := range rids {
			if r == 1 {
				found = true
			}
			if r == 2 || r == 3 || r == 5 {
				t.Errorf("mode %v: spurious hit %d", mode, r)
			}
		}
		if !found {
			t.Errorf("mode %v: SCHWARZ not found: %v", mode, rids)
		}
	}
	// SearchRecords returns decrypted contents.
	recs, err := store.SearchRecords(ctx, []byte("MARTINEZ"), SearchExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RID != 5 || string(recs[0].Content) != "MARTINEZ MARIA" {
		t.Errorf("SearchRecords = %+v", recs)
	}
}

func TestSearchModesMinLengths(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 8, Chunkings: 4}, nil)
	if store.MinQueryLen() != 9 {
		t.Errorf("MinQueryLen = %d, want 9", store.MinQueryLen())
	}
	if store.MinQueryLenFor(SearchFast) != 9 {
		t.Error("MinQueryLenFor(fast)")
	}
	if store.MinQueryLenFor(SearchExact) != 15 {
		t.Errorf("MinQueryLenFor(exact) = %d, want 15", store.MinQueryLenFor(SearchExact))
	}
	ctx := context.Background()
	store.Insert(ctx, 1, []byte("ABCDEFGHIJKLMNOP"))
	if _, err := store.Search(ctx, []byte("ABCDEFGH"), SearchFast); err == nil {
		t.Error("too-short query accepted")
	}
}

func TestStage2SymbolEncodingStore(t *testing.T) {
	entries := phonebook.Generate(300, 1)
	corpus := phonebook.Names(entries)
	store := openMem(t, Config{ChunkSize: 2, Chunkings: 2, SymbolCodes: 16}, corpus)
	ctx := context.Background()
	for i, e := range entries[:100] {
		if err := store.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
			t.Fatal(err)
		}
	}
	// Every indexed record must be findable by its own surname (length
	// permitting): the Stage-2 encoding is lossy but deterministic, so
	// there are no false negatives.
	misses := 0
	for i, e := range entries[:100] {
		last := e.LastName()
		if len(last) < store.MinQueryLen() {
			continue
		}
		rids, err := store.Search(ctx, []byte(last), SearchFast)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range rids {
			if r == uint64(i) {
				found = true
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d false negatives under symbol encoding", misses)
	}
}

func TestSearchRecordsRemovesFalsePositives(t *testing.T) {
	entries := phonebook.Generate(400, 2)
	corpus := phonebook.Names(entries)
	// Aggressive compression (8 codes) to force plenty of collisions.
	store := openMem(t, Config{ChunkSize: 2, Chunkings: 2, SymbolCodes: 8}, corpus)
	ctx := context.Background()
	for i, e := range entries {
		if err := store.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
			t.Fatal(err)
		}
	}
	// A short surname under 8 codes collides often: the index alone
	// over-reports, and SearchRecords must drop the extras.
	query := []byte("LEE")
	raw, err := store.Search(ctx, query, SearchFast)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := store.SearchRecords(ctx, query, SearchFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) >= len(raw) {
		t.Errorf("SearchRecords kept %d of %d index hits; want the false positives dropped", len(filtered), len(raw))
	}
	for _, r := range filtered {
		if !bytes.Contains(r.Content, query) {
			t.Errorf("filtered result %q does not contain query", r.Content)
		}
	}
	// Every true occurrence must survive the filter.
	for i, e := range entries {
		if bytes.Contains([]byte(e.Name), query) {
			found := false
			for _, r := range filtered {
				if r.RID == uint64(i) {
					found = true
				}
			}
			if !found {
				t.Errorf("true occurrence %q (rid %d) filtered away", e.Name, i)
			}
		}
	}
}

func TestWrongKeyCannotRead(t *testing.T) {
	cluster := NewMemoryCluster(2)
	defer cluster.Close()
	ctx := context.Background()
	cfg := Config{ChunkSize: 4, Chunkings: 2}
	a, err := Open(cluster, KeyFromPassphrase("alice"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(ctx, 1, []byte("TOP SECRET CONTENT")); err != nil {
		t.Fatal(err)
	}
	b, err := Open(cluster, KeyFromPassphrase("mallory"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ctx, 1); err == nil {
		t.Error("wrong key decrypted a record")
	}
	// And the wrong key's queries do not match the index.
	rids, err := b.Search(ctx, []byte("SECRET CON"), SearchFast)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rids {
		if r == 1 {
			t.Error("wrong key's query matched the index")
		}
	}
}

func TestStatsAndGrowth(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 2, MaxBucketLoad: 4}, nil)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		content := []byte("RECORD CONTENT NUMBER PADDING DATA")
		if err := store.Insert(ctx, uint64(i), content); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()
	if st.RecordBuckets < 8 || st.IndexBuckets < 8 {
		t.Errorf("files did not grow: %+v", st)
	}
	if st.RecordSplits == 0 || st.IndexSplits == 0 {
		t.Errorf("no splits recorded: %+v", st)
	}
}

// TestWordFileHonoursMaxBucketLoad: Config.MaxBucketLoad sets the split
// threshold of the word file too, not just the record and index files.
func TestWordFileHonoursMaxBucketLoad(t *testing.T) {
	cluster := NewMemoryCluster(3)
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("test"), Config{ChunkSize: 4, Chunkings: 2, MaxBucketLoad: 8, WordSearch: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := store.Insert(ctx, uint64(i), []byte("RECORD CONTENT NUMBER PADDING DATA")); err != nil {
			t.Fatal(err)
		}
	}
	words := cluster.inner.Coordinator().File(sdds.FileWords)
	if words.MaxLoad != 8 || words.Splits == 0 {
		t.Fatalf("word file has max load %d and %d splits, want 8 and some", words.MaxLoad, words.Splits)
	}
}

// TestNodesKeepsKilledNode: the node count is the placement's
// membership, not the set of handlers answering right now — a killed
// node is still a member the detector probes and the supervisor
// revives.
func TestNodesKeepsKilledNode(t *testing.T) {
	cluster := NewMemoryCluster(3)
	defer cluster.Close()
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if n := cluster.Nodes(); n != 3 {
		t.Fatalf("Nodes after KillNode(1) = %d, want 3", n)
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	cluster, err := StartLocalTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Nodes() != 3 {
		t.Errorf("Nodes = %d", cluster.Nodes())
	}
	store, err := Open(cluster, KeyFromPassphrase("tcp"), Config{ChunkSize: 4, Chunkings: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, name := range []string{"SCHWARZ THOMAS", "LITWIN WITOLD", "TSUI PETER"} {
		if err := store.Insert(ctx, uint64(i), []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := store.SearchRecords(ctx, []byte("LITWIN"), SearchFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Content) != "LITWIN WITOLD" {
		t.Errorf("recs = %+v", recs)
	}
}

func TestDialClusterValidation(t *testing.T) {
	if _, err := DialCluster(nil); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := DialCluster(map[int]string{1: "x"}); err == nil {
		t.Error("sparse IDs accepted")
	}
}

func TestSearchModeString(t *testing.T) {
	if SearchFast.String() != "fast" || SearchVerified.String() != "verified" ||
		SearchExact.String() != "exact" || SearchMode(9).String() != "unknown" {
		t.Error("SearchMode.String wrong")
	}
}

func TestWordSearch(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 2, WordSearch: true}, nil)
	ctx := context.Background()
	names := map[uint64]string{
		1: "SCHWARZ THOMAS",
		2: "SCHWARZSON THOMASINA", // contains SCHWARZ as substring, not word
		3: "LITWIN WITOLD",
		4: "THOMAS ANDERSON",
	}
	for rid, n := range names {
		if err := store.Insert(ctx, rid, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Whole-word semantics: SCHWARZ matches record 1 only.
	rids, err := store.SearchWord(ctx, []byte("SCHWARZ"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != 1 {
		t.Errorf("SearchWord(SCHWARZ) = %v, want [1]", rids)
	}
	// THOMAS matches 1 and 4 but not THOMASINA's record.
	rids, err = store.SearchWord(ctx, []byte("THOMAS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 2 || rids[0] != 1 || rids[1] != 4 {
		t.Errorf("SearchWord(THOMAS) = %v, want [1 4]", rids)
	}
	// Case-insensitive under the default tokenizer.
	rids, err = store.SearchWord(ctx, []byte("witold"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != 3 {
		t.Errorf("SearchWord(witold) = %v, want [3]", rids)
	}
	// Short words work (no chunk-size minimum).
	if err := store.Insert(ctx, 5, []byte("YU LI")); err != nil {
		t.Fatal(err)
	}
	rids, err = store.SearchWord(ctx, []byte("YU"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != 5 {
		t.Errorf("SearchWord(YU) = %v, want [5]", rids)
	}
	// Word hits are exact: Get fetches the record itself.
	rids, err = store.SearchWord(ctx, []byte("LITWIN"))
	if err != nil || len(rids) != 1 {
		t.Fatalf("SearchWord(LITWIN) = %v, %v", rids, err)
	}
	if got, err := store.Get(ctx, rids[0]); err != nil || string(got) != "LITWIN WITOLD" {
		t.Errorf("Get(%d) = %q, %v", rids[0], got, err)
	}
	// Delete removes word entries too.
	if err := store.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	rids, err = store.SearchWord(ctx, []byte("SCHWARZ"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 0 {
		t.Errorf("deleted record still word-matches: %v", rids)
	}
	// Replace updates the blob.
	if err := store.Insert(ctx, 3, []byte("RENAMED PERSON")); err != nil {
		t.Fatal(err)
	}
	rids, _ = store.SearchWord(ctx, []byte("LITWIN"))
	if len(rids) != 0 {
		t.Errorf("replaced record still word-matches: %v", rids)
	}
}

func TestWordSearchDisabled(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 2}, nil)
	if _, err := store.SearchWord(context.Background(), []byte("X")); !errors.Is(err, ErrWordSearchDisabled) {
		t.Errorf("err = %v, want ErrWordSearchDisabled", err)
	}
}
