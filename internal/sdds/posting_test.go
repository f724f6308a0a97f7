package sdds

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/transport"
)

// insertIndexedSequential is the pre-batching insert path: one Put RPC
// per (chunking, site) piece. The reference implementation the batched
// InsertIndexed is tested and benchmarked against.
func insertIndexedSequential(ctx context.Context, c *Cluster, id FileID, recs []core.IndexRecord, kSites int, slotBits uint) error {
	for _, rec := range recs {
		for k, stream := range rec.Streams {
			key := ComposeIndexKey(rec.RID, rec.J, k, kSites, slotBits)
			val := encode(indexValue{firstIndex: uint32(rec.FirstIndex), pieces: stream})
			if err := c.Put(ctx, id, key, val); err != nil {
				return err
			}
		}
	}
	return nil
}

// memClusterNodes is memCluster, also returning the node handles (for
// white-box posting-index inspection) with optional linear-scan mode.
func memClusterNodes(t *testing.T, n int, linear bool) (*Cluster, []*Node) {
	t.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for i, id := range ids {
		node := NewNode(id, mem, place)
		if linear {
			node.DisablePostingIndex()
		}
		nodes[i] = node
		mem.Register(id, node.Handler())
	}
	return NewCluster(mem, place), nodes
}

// postingDump is a normalized, implementation-agnostic view of a
// posting index's LIVE postings: piece → key → sorted offsets.
// Tombstones are skipped, so a flat index mid-churn and a from-scratch
// rebuild dump identically.
type postingDump map[disperse.Piece]map[uint64][]uint32

func dumpPostings(idx postingIndex) postingDump {
	d := make(postingDump)
	idx.forEach(func(p disperse.Piece, items []posting) {
		for _, pt := range items {
			if pt.off == tombstoneOff {
				continue
			}
			m := d[p]
			if m == nil {
				m = make(map[uint64][]uint32)
				d[p] = m
			}
			key := idx.at(pt.slot).key
			m[key] = append(m[key], pt.off)
		}
	})
	for _, m := range d {
		for k, offs := range m {
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			m[k] = offs
		}
	}
	return d
}

// checkPostingInvariants verifies that every node's incremental posting
// index is exactly what a from-scratch rebuild of its bucket contents
// would produce — the invariant that makes posting search equivalent to
// the linear scan by construction — and, for the flat index, that
// tombstone accounting and the compaction dead-ratio bound hold.
func checkPostingInvariants(t *testing.T, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		n.mu.Lock()
		for id, f := range n.files {
			if f.idx == nil {
				if id == FileIndex && !n.linearSearch {
					t.Errorf("node %d: index file has no posting index", n.id)
				}
				continue
			}
			ref := newFlatIndex(nil)
			var keys []uint64
			for _, b := range f.buckets {
				b.Scan(func(key uint64, value []byte) bool {
					ref.put(key, value)
					keys = append(keys, key)
					return true
				})
			}
			st := f.idx.stats()
			if want := ref.stats(); st.entries != want.entries {
				t.Errorf("node %d file %d: %d indexed entries, rebuild has %d",
					n.id, id, st.entries, want.entries)
			}
			for _, key := range keys {
				e, ok := f.idx.entry(key)
				we, wok := ref.entry(key)
				if ok != wok || !reflect.DeepEqual(e, we) {
					t.Errorf("node %d file %d: entry %d diverges from rebuild", n.id, id, key)
				}
			}
			if got, want := dumpPostings(f.idx), dumpPostings(ref); !reflect.DeepEqual(got, want) {
				t.Errorf("node %d file %d: live postings diverge from rebuild:\n got %v\nwant %v",
					n.id, id, got, want)
			}
			checkFlatInvariants(t, n.id, id, f.idx)
		}
		n.mu.Unlock()
	}
}

// checkFlatInvariants asserts the flat index's internal accounting: the
// per-list dead counter matches the tombstones actually present, no
// list of compactable length carries a dead fraction at or above the
// trigger (compaction fires the moment the threshold is crossed, so a
// quiescent index can never sit beyond it), and the slot table is
// consistent: every slot is either mapped from its entry's key or free,
// free slots hold nothing, and every live posting and its owner entry
// point at each other.
func checkFlatInvariants(t *testing.T, node transport.NodeID, file FileID, idx postingIndex) {
	t.Helper()
	fi, ok := idx.(*flatIndex)
	if !ok {
		return
	}
	if len(fi.slots)+len(fi.free) != len(fi.ents) {
		t.Errorf("node %d file %d: %d mapped + %d free slots, table holds %d",
			node, file, len(fi.slots), len(fi.free), len(fi.ents))
	}
	freed := make(map[uint32]bool, len(fi.free))
	for _, s := range fi.free {
		if int(s) >= len(fi.ents) || freed[s] {
			t.Errorf("node %d file %d: free list names slot %d twice or out of range", node, file, s)
			continue
		}
		freed[s] = true
		if e := fi.ents[s]; e.pieces != nil || e.pos != nil {
			t.Errorf("node %d file %d: free slot %d still holds key %d", node, file, s, e.key)
		}
	}
	for p, l := range fi.post {
		var dead uint32
		for i, pt := range l.items {
			if pt.off == tombstoneOff {
				dead++
				continue
			}
			if int(pt.slot) >= len(fi.ents) || freed[pt.slot] {
				t.Errorf("node %d file %d: piece %d live posting %d names freed slot %d",
					node, file, p, i, pt.slot)
				continue
			}
			e := fi.ents[pt.slot]
			if s, ok := fi.slots[e.key]; !ok || s != pt.slot {
				t.Errorf("node %d file %d: piece %d posting %d: slot %d holds key %d, which maps to slot %d (%v)",
					node, file, p, i, pt.slot, e.key, s, ok)
				continue
			}
			if int(pt.off) >= len(e.pieces) || e.pieces[pt.off] != p || e.pos[pt.off] != uint32(i) {
				t.Errorf("node %d file %d: piece %d posting %d (%+v): owner key %d does not point back",
					node, file, p, i, pt, e.key)
			}
		}
		if dead != l.dead {
			t.Errorf("node %d file %d: piece %d dead counter %d, %d tombstones present",
				node, file, p, l.dead, dead)
		}
		if len(l.items) == 0 || int(l.dead) == len(l.items) {
			t.Errorf("node %d file %d: piece %d kept a fully dead list (len %d)",
				node, file, p, len(l.items))
		}
		if len(l.items) >= compactMinLen && int(l.dead)*2 >= len(l.items) {
			t.Errorf("node %d file %d: piece %d dead ratio %d/%d at or above compaction trigger",
				node, file, p, l.dead, len(l.items))
		}
	}
	// Positional back-references: every entry's i-th occurrence must be
	// exactly where pos[i] says, and it must be live — deletes and
	// compactions both maintain this (deletes rely on it for their
	// O(occurrences) bound).
	for key, s := range fi.slots {
		if int(s) >= len(fi.ents) {
			t.Errorf("node %d file %d: key %d maps to slot %d out of range", node, file, key, s)
			continue
		}
		e := fi.ents[s]
		if e.key != key {
			t.Errorf("node %d file %d: key %d maps to slot %d, which holds key %d", node, file, key, s, e.key)
		}
		if len(e.pos) != len(e.pieces) {
			t.Errorf("node %d file %d: key %d pos len %d != pieces len %d",
				node, file, key, len(e.pos), len(e.pieces))
			continue
		}
		for i, p := range e.pieces {
			l := fi.post[p]
			if l == nil || int(e.pos[i]) >= len(l.items) {
				t.Errorf("node %d file %d: key %d occurrence %d: back-reference %d out of range (piece %d)",
					node, file, key, i, e.pos[i], p)
				continue
			}
			if got := l.items[e.pos[i]]; got != (posting{slot: s, off: uint32(i)}) {
				t.Errorf("node %d file %d: key %d occurrence %d: back-reference points at %+v",
					node, file, key, i, got)
			}
		}
	}
}

// randomRecord builds an uppercase record of 8..39 symbols.
func randomRecord(rng *rand.Rand) []byte {
	n := 8 + rng.Intn(32)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return b
}

// TestPostingSearchMatchesLinearScan drives two identical clusters —
// posting-indexed and linear-scan — through randomized inserts, deletes
// (forcing splits and merges), and compares Search results for every
// query and verify mode. The posting index must be observationally
// indistinguishable from the reference scan.
func TestPostingSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	post, postNodes := memClusterNodes(t, 3, false)
	lin, _ := memClusterNodes(t, 3, true)
	for _, c := range []*Cluster{post, lin} {
		c.SetMaxLoad(FileIndex, 8) // force plenty of splits
	}

	contents := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 120; rid++ {
		rc := randomRecord(rng)
		contents[rid] = rc
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := post.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		if err := insertIndexedSequential(ctx, lin, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	if post.State(FileIndex).Buckets() < 4 {
		t.Fatalf("index file did not split: %d buckets", post.State(FileIndex).Buckets())
	}

	compare := func(stage string) {
		t.Helper()
		queries := [][]byte{[]byte("ZZZZZZZZ")}
		for rid, rc := range contents {
			if len(queries) > 12 {
				break
			}
			if len(rc) >= 10 {
				off := rng.Intn(len(rc) - 9)
				queries = append(queries, rc[off:off+9])
			}
			_ = rid
		}
		for qi, q := range queries {
			for _, mode := range []core.VerifyMode{core.VerifyAny, core.VerifyAll, core.VerifyAligned} {
				all := mode != core.VerifyAny
				query, err := pl.BuildQuery(q, all)
				if err != nil {
					t.Fatal(err)
				}
				got, err := post.Search(ctx, FileIndex, pl, query, mode)
				if err != nil {
					t.Fatal(err)
				}
				want, err := lin.Search(ctx, FileIndex, pl, query, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: query %d (%q) mode %d: posting %v, linear %v",
						stage, qi, q, mode, got, want)
				}
			}
		}
		checkPostingInvariants(t, postNodes)
	}

	compare("after inserts")

	// Delete enough records to trigger merges, then re-compare.
	var rids []uint64
	for rid := range contents {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids[:110] {
		if err := post.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		if err := lin.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		delete(contents, rid)
	}
	if post.Merges(FileIndex) == 0 {
		t.Error("deletes triggered no merges")
	}
	compare("after deletes and merges")
}

// TestPostingIndexSurvivesSnapshotRestore round-trips every node
// through its checkpoint image and a restart from it, and requires the
// rebuilt posting index to match the incremental one.
func TestPostingIndexSurvivesSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	c, nodes := memClusterNodes(t, 3, false)
	c.SetMaxLoad(FileIndex, 8)
	for rid := uint64(1); rid <= 60; rid++ {
		recs, err := pl.BuildIndex(rid, randomRecord(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := attachCheckpoint(t, n, imageOf(n)); err != nil {
			t.Fatal(err)
		}
	}
	checkPostingInvariants(t, nodes)
	query, err := pl.BuildQuery([]byte("AAAAAAA"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
		t.Fatal(err)
	}
}

// TestInsertIndexedBatchedMatchesSequential checks the batched insert
// path produces the same searchable state as the sequential one.
func TestInsertIndexedBatchedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pl := testPipeline(t, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	batched, _ := memClusterNodes(t, 4, false)
	seq, _ := memClusterNodes(t, 4, false)
	for _, c := range []*Cluster{batched, seq} {
		c.SetMaxLoad(FileIndex, 8)
	}
	contents := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 80; rid++ {
		rc := randomRecord(rng)
		contents[rid] = rc
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		if err := batched.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
		if err := insertIndexedSequential(ctx, seq, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := batched.Size(FileIndex), seq.Size(FileIndex); got != want {
		t.Fatalf("batched size %d, sequential %d", got, want)
	}
	for rid, rc := range contents {
		if len(rc) < 9 {
			continue
		}
		q := rc[:9]
		query, err := pl.BuildQuery(q, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batched.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.Search(ctx, FileIndex, pl, query, core.VerifyAny)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rid %d query %q: batched %v, sequential %v", rid, q, got, want)
		}
	}
}

// failingTransport refuses sends to one node, for partial-failure runs.
type failingTransport struct {
	transport.Transport
	dead transport.NodeID
}

func (f *failingTransport) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	if node == f.dead {
		return nil, fmt.Errorf("node %d: injected outage", node)
	}
	return f.Transport.Send(ctx, node, op, payload)
}

// TestInsertIndexedPartialFailure kills one node and requires the
// batched insert to report exactly that node in a *BatchError while the
// surviving nodes' entries are applied.
func TestInsertIndexedPartialFailure(t *testing.T) {
	pl := testPipeline(t, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	mem := transport.NewMemory()
	ids := []transport.NodeID{0, 1, 2}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		node := NewNode(id, mem, place)
		mem.Register(id, node.Handler())
	}
	c := NewCluster(&failingTransport{Transport: mem, dead: 1}, place)

	// Pre-split the file so entries scatter across several nodes. Do it
	// over the healthy transport to get a multi-bucket image.
	healthy := NewCluster(mem, place)
	healthy.SetMaxLoad(FileIndex, 4)
	for rid := uint64(100); rid < 140; rid++ {
		recs, err := pl.BuildIndex(rid, []byte("PRIMERECORDCONTENT"))
		if err != nil {
			t.Fatal(err)
		}
		if err := healthy.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	// Share the grown file state with the failing-transport cluster.
	c.mu.Lock()
	c.files[FileIndex] = healthy.files[FileIndex]
	c.mu.Unlock()

	recs, err := pl.BuildIndex(7, []byte("SCHWARZ THOMAS AND COMPANY"))
	if err != nil {
		t.Fatal(err)
	}
	err = c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits)
	if err == nil {
		t.Fatal("expected partial failure")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %T (%v), want *BatchError", err, err)
	}
	for _, f := range be.Failures {
		if f.Node != 1 {
			t.Errorf("failure reported for healthy node %d", f.Node)
		}
	}
	// Surviving nodes' pieces must be present: a search over the healthy
	// transport should find entries for rid 7 unless every piece happened
	// to land on node 1.
	query, err := pl.BuildQuery([]byte("SCHWARZ T"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
		t.Fatal(err)
	}
}
