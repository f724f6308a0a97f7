package sdds

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// walIndexHarness is a single durable node serving the index file
// through a real cluster client, for exercising the flat index's
// recovery paths: WAL replay and checkpoint restore.
type walIndexHarness struct {
	t     *testing.T
	fs    *wal.MemFS
	place *Placement
	mem   *transport.Memory
	node  *Node
	c     *Cluster
}

func newWALIndexHarness(t *testing.T) *walIndexHarness {
	t.Helper()
	place, err := NewPlacement([]transport.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	h := &walIndexHarness{t: t, fs: wal.NewMemFS(), place: place}
	h.openNode()
	return h
}

// openNode (re)opens the durable state into a fresh node and cluster,
// as a restarted process would, replaying whatever the WAL holds.
func (h *walIndexHarness) openNode() wal.Outcome {
	h.t.Helper()
	st, err := wal.Open(h.fs, "node", wal.Options{CheckpointBytes: 4096})
	if err != nil {
		h.t.Fatalf("opening store: %v", err)
	}
	h.mem = transport.NewMemory()
	h.node = NewNode(0, h.mem, h.place)
	out, err := h.node.AttachStore(st)
	if err != nil {
		h.t.Fatalf("AttachStore: %v (outcome %v)", err, out)
	}
	h.mem.Register(0, h.node.Handler())
	h.c = NewCluster(h.mem, h.place)
	h.c.SetMaxLoad(FileIndex, 8)
	return out
}

// TestFlatIndexWALReplay checks the flat index after a WAL replay:
// recovery rebuilds it from the replayed buckets, search results equal
// the pre-restart ones and the linear scan, and a second recovery round
// (after the post-replay re-checkpoint) does not double-index anything.
func TestFlatIndexWALReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	h := newWALIndexHarness(t)

	contents := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 50; rid++ {
		rc := randomRecord(rng)
		contents[rid] = rc
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	for rid := uint64(1); rid <= 10; rid++ {
		if err := h.c.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		delete(contents, rid)
	}

	search := func(q []byte) []uint64 {
		t.Helper()
		query, err := pl.BuildQuery(q, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	queries := [][]byte{[]byte("ZZZZZZZZ")}
	for _, rc := range contents {
		if len(queries) >= 8 {
			break
		}
		if len(rc) >= 9 {
			queries = append(queries, rc[:9])
		}
	}
	before := make([][]uint64, len(queries))
	for i, q := range queries {
		before[i] = search(q)
	}

	// Restart 1: replay (checkpoint + journal tail).
	if out := h.openNode(); out != wal.OutcomeRecovered {
		t.Fatalf("first restart outcome %v, want recovered", out)
	}
	checkPostingInvariants(t, []*Node{h.node})
	for i, q := range queries {
		if got := search(q); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("after replay: query %d: %v, want %v", i, got, before[i])
		}
	}

	// Force the recovered node to re-checkpoint, then recover again: the
	// restore-then-replay path must not double-index (any duplicate
	// postings would diverge from the fresh rebuild in the invariant
	// check, and search hits would duplicate).
	h.node.mu.Lock()
	cperr := h.node.store.Checkpoint(h.node.snapshotLocked())
	h.node.mu.Unlock()
	if cperr != nil {
		t.Fatalf("forced checkpoint: %v", cperr)
	}
	if out := h.openNode(); out != wal.OutcomeRecovered {
		t.Fatalf("second restart outcome %v, want recovered", out)
	}
	checkPostingInvariants(t, []*Node{h.node})
	for i, q := range queries {
		if got := search(q); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("after re-checkpoint + replay: query %d: %v, want %v", i, got, before[i])
		}
	}

	// The recovered index must also equal a linear-scan node fed the
	// same recovered state: restart a linear-scan node from the
	// recovered node's checkpoint image and cross-compare.
	linMem := transport.NewMemory()
	linNode := NewNode(0, linMem, h.place)
	linNode.DisablePostingIndex()
	if err := attachCheckpoint(t, linNode, imageOf(h.node)); err != nil {
		t.Fatal(err)
	}
	linMem.Register(0, linNode.Handler())
	linC := NewCluster(linMem, h.place)
	// Share the client-side file image so both clusters address the same
	// bucket layout.
	linC.mu.Lock()
	h.c.mu.Lock()
	linC.files[FileIndex] = h.c.files[FileIndex]
	h.c.mu.Unlock()
	linC.mu.Unlock()
	for i, q := range queries {
		query, err := pl.BuildQuery(q, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := linC.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatal(err)
		}
		if got := search(q); !reflect.DeepEqual(got, want) {
			t.Errorf("posting vs linear after restore: query %d: %v, want %v", i, got, want)
		}
	}
}

// TestFlatIndexCheckpointRestore round-trips a grown, churned node
// through a checkpoint image and a restart from it, and requires the
// rebuilt flat index to be exactly what the incremental one was: same
// invariants, same search results.
func TestFlatIndexCheckpointRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	c, nodes := memClusterNodes(t, 3, false)
	c.SetMaxLoad(FileIndex, 8)

	contents := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 80; rid++ {
		rc := randomRecord(rng)
		contents[rid] = rc
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	for rid := uint64(1); rid <= 30; rid++ {
		if err := c.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		delete(contents, rid)
	}

	var queries [][]byte
	for _, rc := range contents {
		if len(queries) >= 6 {
			break
		}
		if len(rc) >= 9 {
			queries = append(queries, rc[:9])
		}
	}
	results := func() [][]uint64 {
		t.Helper()
		out := make([][]uint64, len(queries))
		for i, q := range queries {
			query, err := pl.BuildQuery(q, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = got
		}
		return out
	}
	before := results()

	// Restore every node twice in a row: the second restore rebuilds an
	// index that was itself produced by a rebuild — any double-indexing
	// or leftover state would compound and show up in the invariants.
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if err := attachCheckpoint(t, n, imageOf(n)); err != nil {
				t.Fatal(err)
			}
		}
		checkPostingInvariants(t, nodes)
		after := results()
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("round %d: search results changed across restore: %v, want %v", round, after, before)
		}
	}
}
