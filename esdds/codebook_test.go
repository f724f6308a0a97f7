package esdds

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/phonebook"
	"repro/internal/sdds"
	"repro/internal/transport"
)

func TestCodebookPersistenceRoundTrip(t *testing.T) {
	entries := phonebook.Generate(300, 11)
	corpus := phonebook.Names(entries)
	cluster := NewMemoryCluster(3)
	defer cluster.Close()
	key := KeyFromPassphrase("cb")
	cfg := Config{ChunkSize: 2, Chunkings: 2, SymbolCodes: 16}

	first, err := Open(cluster, key, cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, e := range entries[:50] {
		if err := first.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := first.WriteCodebook(&buf); err != nil {
		t.Fatal(err)
	}

	// A second client loads the persisted codebook instead of
	// retraining and must see identical search behaviour.
	second, err := OpenWithCodebook(cluster, key, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"MARTINEZ", "NGUYEN", "WONG", "CHAN"} {
		if len(q) < first.MinQueryLen() {
			continue
		}
		a, err := first.Search(ctx, []byte(q), SearchFast)
		if err != nil {
			t.Fatal(err)
		}
		b, err := second.Search(ctx, []byte(q), SearchFast)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %q: first client %v, second client %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %q: first client %v, second client %v", q, a, b)
			}
		}
	}
	// And the second client's inserts are searchable by the first.
	if err := second.Insert(ctx, 9999, []byte("ZELENSKY OLEKSANDRA")); err != nil {
		t.Fatal(err)
	}
	rids, err := first.SearchRecords(ctx, []byte("ZELENSKY"), SearchFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0].RID != 9999 {
		t.Errorf("cross-client search: %+v", rids)
	}
}

func TestWriteCodebookWithoutStage2(t *testing.T) {
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 2}, nil)
	var buf bytes.Buffer
	if err := store.WriteCodebook(&buf); err == nil {
		t.Error("store without Stage-2 wrote a codebook")
	}
}

func TestOpenWithCodebookValidation(t *testing.T) {
	entries := phonebook.Generate(100, 12)
	corpus := phonebook.Names(entries)
	cluster := NewMemoryCluster(2)
	defer cluster.Close()
	key := KeyFromPassphrase("cb2")

	sym, err := Open(cluster, key, Config{ChunkSize: 2, Chunkings: 2, SymbolCodes: 16}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var symBuf bytes.Buffer
	if err := sym.WriteCodebook(&symBuf); err != nil {
		t.Fatal(err)
	}
	raw := symBuf.Bytes()

	// Garbage input.
	if _, err := OpenWithCodebook(cluster, key, Config{ChunkSize: 2, SymbolCodes: 16}, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage codebook accepted")
	}
	// Count mismatch.
	if _, err := OpenWithCodebook(cluster, key, Config{ChunkSize: 2, SymbolCodes: 32}, bytes.NewReader(raw)); err == nil {
		t.Error("code-count mismatch accepted")
	}
	// Kind mismatch: symbol codebook for ChunkCodes config.
	if _, err := OpenWithCodebook(cluster, key, Config{ChunkSize: 2, ChunkCodes: 16}, bytes.NewReader(raw)); err == nil {
		t.Error("kind mismatch accepted")
	}
	// No Stage-2 requested at all.
	if _, err := OpenWithCodebook(cluster, key, Config{ChunkSize: 2}, bytes.NewReader(raw)); err == nil {
		t.Error("no-encoding config accepted")
	}
	// Chunk-level round trip.
	ch, err := Open(cluster, key, Config{ChunkSize: 2, Chunkings: 2, ChunkCodes: 16}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var chBuf bytes.Buffer
	if err := ch.WriteCodebook(&chBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithCodebook(cluster, key, Config{ChunkSize: 2, Chunkings: 2, ChunkCodes: 16}, &chBuf); err != nil {
		t.Errorf("chunk-level codebook rejected: %v", err)
	}
}

func TestSearchShort(t *testing.T) {
	// §2.3 kludge: a query of MinQueryLen-1 symbols is expanded with
	// every alphabet symbol.
	store := openMem(t, Config{ChunkSize: 4, Chunkings: 4}, nil)
	ctx := context.Background()
	names := map[uint64]string{
		1: "YUAN LI",      // contains "YUA" mid-word
		2: "WONG YUA",     // ends with "YUA" (padding case)
		3: "MARTINEZ ANA", // no YUA
	}
	for rid, n := range names {
		if err := store.Insert(ctx, rid, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	if store.MinQueryLen() != 4 {
		t.Fatalf("MinQueryLen = %d", store.MinQueryLen())
	}
	rids, err := store.SearchShort(ctx, []byte("YUA"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, r := range rids {
		got[r] = true
	}
	if !got[1] || !got[2] {
		t.Errorf("SearchShort missed occurrences: %v", rids)
	}
	if got[3] {
		t.Errorf("SearchShort false hit on record 3: %v", rids)
	}
	// Wrong length rejected.
	if _, err := store.SearchShort(ctx, []byte("YU"), nil); err == nil {
		t.Error("wrong-length short query accepted")
	}
}

// failNthSearch fails the nth search send to one node with
// transport.ErrNodeDown and passes every other send through.
type failNthSearch struct {
	transport.Transport
	node transport.NodeID
	n    int

	mu   sync.Mutex
	seen int
}

func (f *failNthSearch) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	if node == f.node && sdds.OpName(op) == "search" {
		f.mu.Lock()
		f.seen++
		fail := f.seen == f.n
		f.mu.Unlock()
		if fail {
			return nil, transport.ErrNodeDown
		}
	}
	return f.Transport.Send(ctx, node, op, payload)
}

// TestSearchShortReportsFailedPaddingProbe: the padding probe is the one
// that finds records ending in the short query. A node failing only that
// probe must surface as an IncompleteError holding what the alphabet
// probes found, not as a union silently missing the suffix matches.
func TestSearchShortReportsFailedPaddingProbe(t *testing.T) {
	alphabet := []byte(" ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	cluster := NewMemoryCluster(3)
	t.Cleanup(func() { cluster.Close() })
	// The index file's only bucket lives on node 0; its search sends come
	// one per probe, the padding probe last.
	tr := &failNthSearch{Transport: cluster.inner.Transport(), node: 0, n: len(alphabet) + 1}
	cluster.inner = sdds.NewCluster(tr, cluster.place)
	store, err := Open(cluster, KeyFromPassphrase("short"), Config{ChunkSize: 4, Chunkings: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid, n := range map[uint64]string{1: "YUAN LI", 2: "WONG YUA", 3: "MARTINEZ ANA"} {
		if err := store.Insert(ctx, rid, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	rids, err := store.SearchShort(ctx, []byte("YUA"), alphabet)
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("SearchShort with a failed padding probe = %v, %v; want an IncompleteError", rids, err)
	}
	if len(ie.Failed) != 1 || ie.Failed[0].Node != 0 {
		t.Fatalf("Failed = %v, want node 0", ie.Failed)
	}
	if !slices.Equal(ie.RIDs, []uint64{1}) {
		t.Fatalf("partial union = %v, want the alphabet probes' [1]", ie.RIDs)
	}
}
