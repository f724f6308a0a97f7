package sdds

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/disperse"
)

// ---------------------------------------------------------------------
// Index-level differential harness: the flat index, the legacy map
// index, and a stored-value linear scan are driven through identical op
// streams and must report identical matches at every step. This is the
// miniature of the node search paths: probeMatches mirrors
// searchPosting's anchor-probe-then-verify walk, scanMatches mirrors
// searchBucket's full scan.
// ---------------------------------------------------------------------

// idxMatch is one (key, offset) pattern occurrence.
type idxMatch struct {
	key uint64
	off uint32
}

// probeMatches finds pattern occurrences through a posting index the
// way searchPosting does: walk the anchor piece's packed postings, skip
// tombstones, verify each candidate offset against the full pattern.
func probeMatches(idx postingIndex, pat []disperse.Piece) []idxMatch {
	var out []idxMatch
	for _, pt := range idx.postings(pat[0]) {
		if pt.off == tombstoneOff {
			continue
		}
		e := idx.at(pt.slot)
		if core.MatchAt(e.pieces, pat, int(pt.off)) {
			out = append(out, idxMatch{key: e.key, off: pt.off})
		}
	}
	sortMatches(out)
	return out
}

// scanMatches finds pattern occurrences by decoding every stored value
// — the linear-scan ground truth.
func scanMatches(stored map[uint64][]byte, pat []disperse.Piece) []idxMatch {
	var out []idxMatch
	for key, value := range stored {
		iv, err := decode[indexValue](value)
		if err != nil {
			continue
		}
		for _, off := range core.MatchOffsets(iv.pieces, pat) {
			out = append(out, idxMatch{key: key, off: uint32(off)})
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []idxMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].key != ms[j].key {
			return ms[i].key < ms[j].key
		}
		return ms[i].off < ms[j].off
	})
}

// diffHarness drives the three representations in lockstep.
type diffHarness struct {
	flat   *flatIndex
	legacy *legacyMapIndex
	stored map[uint64][]byte
}

func newDiffHarness() *diffHarness {
	return &diffHarness{
		flat:   newFlatIndex(nil),
		legacy: newLegacyMapIndex(),
		stored: make(map[uint64][]byte),
	}
}

func (h *diffHarness) put(key uint64, value []byte) {
	h.flat.put(key, value)
	h.legacy.put(key, value)
	h.stored[key] = value
}

func (h *diffHarness) putBatch(ents []kv) {
	h.flat.putBatch(ents)
	// The legacy index and the stored map apply sequentially — the
	// semantics putBatch must be equivalent to.
	for _, e := range ents {
		h.legacy.put(e.key, e.value)
		h.stored[e.key] = e.value
	}
}

func (h *diffHarness) remove(key uint64) {
	h.flat.remove(key)
	h.legacy.remove(key)
	delete(h.stored, key)
}

// check requires all three representations to agree on every pattern in
// pats, the flat and legacy dumps to be identical, and the flat index's
// internal invariants to hold.
func (h *diffHarness) check(t *testing.T, step string, pats [][]disperse.Piece) {
	t.Helper()
	for pi, pat := range pats {
		want := scanMatches(h.stored, pat)
		if got := probeMatches(h.flat, pat); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pattern %d: flat %v, linear scan %v", step, pi, got, want)
		}
		if got := probeMatches(h.legacy, pat); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pattern %d: legacy %v, linear scan %v", step, pi, got, want)
		}
	}
	if got, want := dumpPostings(h.flat), dumpPostings(h.legacy); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flat live postings diverge from legacy:\n got %v\nwant %v", step, got, want)
	}
	checkFlatInvariants(t, 0, 0, h.flat)
}

// zipfPieces draws a piece stream with zipfian piece popularity — the
// skew that concentrates churn on a few hot posting lists.
func zipfPieces(rng *rand.Rand, z *rand.Zipf, n int) []disperse.Piece {
	ps := make([]disperse.Piece, n)
	for i := range ps {
		ps[i] = disperse.Piece(z.Uint64())
	}
	return ps
}

func encodeTestValue(rng *rand.Rand, z *rand.Zipf) []byte {
	n := 1 + rng.Intn(12)
	return encode(indexValue{
		firstIndex: uint32(rng.Intn(4)),
		pieces:     zipfPieces(rng, z, n),
	})
}

// TestIndexDifferentialRandomOps drives the three representations
// through a long random stream of puts, overwrites, deletes, batches,
// and rebuilds with zipfian piece popularity, checking equivalence at
// every step.
func TestIndexDifferentialRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 63)
	h := newDiffHarness()

	pats := [][]disperse.Piece{
		{0}, {1}, {2, 0}, {0, 1, 2}, {5, 5}, {63},
	}
	keys := func() []uint64 {
		ks := make([]uint64, 0, len(h.stored))
		for k := range h.stored {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // fresh put
			h.put(uint64(rng.Intn(200)), encodeTestValue(rng, z))
		case op < 6: // overwrite an existing key if any
			if ks := keys(); len(ks) > 0 {
				h.put(ks[rng.Intn(len(ks))], encodeTestValue(rng, z))
			}
		case op < 8: // delete (hits existing keys often)
			h.remove(uint64(rng.Intn(200)))
		case op < 9: // batch with duplicate keys and a foreign value
			var ents []kv
			for i := 0; i < 2+rng.Intn(10); i++ {
				key := uint64(rng.Intn(200))
				v := encodeTestValue(rng, z)
				if rng.Intn(8) == 0 {
					v = []byte("not an index value")
				}
				ents = append(ents, kv{key: key, value: v})
			}
			// Duplicate one key inside the batch: last occurrence must win.
			if len(ents) >= 2 && rng.Intn(2) == 0 {
				ents = append(ents, kv{key: ents[0].key, value: encodeTestValue(rng, z)})
			}
			h.putBatch(ents)
		default: // rebuild from stored state (the restore path)
			h.flat.reset()
			h.legacy.reset()
			var ents []kv
			for _, k := range keys() {
				ents = append(ents, kv{key: k, value: h.stored[k]})
			}
			h.flat.putBatch(ents)
			for _, e := range ents {
				h.legacy.put(e.key, e.value)
			}
		}
		if step%50 == 0 || step > 1900 {
			h.check(t, fmt.Sprintf("step %d", step), pats)
		}
	}
	h.check(t, "final", pats)
	if h.flat.stats().compactions == 0 {
		t.Error("random op stream triggered no compactions — churn too weak to prove the trigger")
	}
}

// FuzzIndexOps is the fuzz entry of the differential battery: the input
// bytes are decoded as an op stream (2 bytes per op: selector+key, then
// data bytes for values) applied to all three representations, which
// must agree on every anchor pattern afterwards and after each delete
// burst. Run via `make fuzz`.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x41, 0x42, 0x43, 0x10, 0x01, 0x20, 0x02, 0x91, 0x01})
	f.Add([]byte{0x00, 0x05, 0xFF, 0x00, 0x05, 0x00, 0x90, 0x05, 0x00, 0x05, 0x01})
	f.Add([]byte{0x30, 0x07, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99,
		0x90, 0x07, 0x30, 0x07, 0x01, 0x02, 0x03})
	// Delete then reinsert: key 5 takes key 3's freed slot, key 3
	// returns into key 4's, then key 5 is overwritten in place.
	f.Add([]byte{0x00, 0x03, 0x11, 0x00, 0x04, 0x22, 0x90, 0x03, 0x00, 0x05, 0x33,
		0x90, 0x04, 0x00, 0x03, 0x44, 0x01, 0x05, 0x55, 0x66})
	// Overwrites within one batch: keys 10 and 12 are live when a batch
	// over keys 9..13 replaces them, freeing and reusing their slots
	// mid-batch; a second batch does it again after a delete.
	f.Add([]byte{0x00, 0x0A, 0x01, 0x00, 0x0C, 0x02, 0xC3, 0x09, 0x90, 0x0B, 0xC1, 0x0A})
	// The directory's first and last slots: key 1 lists 0xFFFF, 0x0000,
	// 0xFFFF, 0x0000; its delete leaves both lists fully dead, and keys
	// 2 and 1 bring them back.
	f.Add([]byte{0xB3, 0x01, 0x05, 0x90, 0x01, 0xB1, 0x02, 0x03, 0xB7, 0x01, 0xF0, 0x90, 0x02})
	// Long lists at both ends: 20 keys of eight pieces each, half 0xFFFF
	// and half 0x0000, compact under deletes, die out (checked empty at
	// step 48), and come back.
	var edges []byte
	for k := byte(0); k < 20; k++ {
		edges = append(edges, 0xB7, k, 0x0F)
	}
	for k := byte(0); k < 28; k++ { // the last 8 miss, so step 48 checks the empty ends
		edges = append(edges, 0x90, k)
	}
	f.Add(append(edges, 0xB7, 0x05, 0x3C, 0xB0, 0x06, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newDiffHarness()
		rng := rand.New(rand.NewSource(99))
		z := rand.NewZipf(rng, 1.2, 1, 15)
		pats := [][]disperse.Piece{{0}, {1}, {2}, {3, 0}, {15}, {0xFFFF}, {0xFFFF, 0}, {0, 0xFFFF, 0xFFFF}}
		i := 0
		steps := 0
		for i+1 < len(data) && steps < 512 {
			sel, kb := data[i], data[i+1]
			i += 2
			key := uint64(kb)
			switch {
			case sel < 0x80: // put: next sel%8+1 bytes seed a value
				n := int(sel%8) + 1
				if i+n > len(data) {
					n = len(data) - i
				}
				seed := int64(0)
				for _, b := range data[i : i+n] {
					seed = seed<<8 | int64(b)
				}
				i += n
				vrng := rand.New(rand.NewSource(seed))
				vz := rand.NewZipf(vrng, 1.2, 1, 15)
				h.put(key, encodeTestValue(vrng, vz))
			case sel < 0xA0: // delete
				h.remove(key)
			case sel < 0xB0: // foreign value put
				h.put(key, []byte{sel, kb})
			case sel < 0xC0: // edge put: sel%8+1 pieces, each 0x0000 or
				// 0xFFFF by a bit of the next byte — the directory's ends
				var bits byte
				if i < len(data) {
					bits = data[i]
					i++
				}
				ps := make([]disperse.Piece, sel%8+1)
				for j := range ps {
					if bits>>j&1 == 1 {
						ps[j] = 0xFFFF
					}
				}
				h.put(key, encode(indexValue{pieces: ps}))
			default: // batch of small puts
				var ents []kv
				for j := 0; j < int(sel%6)+2; j++ {
					ents = append(ents, kv{key: (key + uint64(j)) % 64, value: encodeTestValue(rng, z)})
				}
				h.putBatch(ents)
			}
			steps++
			if steps%16 == 0 {
				h.check(t, fmt.Sprintf("fuzz step %d", steps), pats)
			}
		}
		h.check(t, "fuzz final", pats)
	})
}

// ---------------------------------------------------------------------
// Cluster-level churn: three real clusters — flat index, legacy map
// index (via the node's index factory), and linear scan — through
// inserts, overwrites, deletes (forcing splits and merges), and
// snapshot/restore, comparing Search results across all three.
// ---------------------------------------------------------------------

// memClusterFactory is memClusterNodes with an explicit posting-index
// factory installed on every node.
func memClusterFactory(t *testing.T, n int, factory func() postingIndex) (*Cluster, []*Node) {
	t.Helper()
	c, nodes := memClusterNodes(t, n, false)
	for _, node := range nodes {
		node.indexFactory = factory
	}
	return c, nodes
}

func TestIndexDifferentialChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	flat, flatNodes := memClusterNodes(t, 3, false)
	legacy, legacyNodes := memClusterFactory(t, 3, func() postingIndex { return newLegacyMapIndex() })
	lin, _ := memClusterNodes(t, 3, true)
	clusters := []*Cluster{flat, legacy, lin}
	for _, c := range clusters {
		c.SetMaxLoad(FileIndex, 8) // force plenty of splits
	}

	// Zipfian symbol alphabet skews piece popularity, concentrating
	// tombstone churn on hot posting lists.
	zs := rand.NewZipf(rng, 1.3, 1, 25)
	zipfRecord := func() []byte {
		n := 10 + rng.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('A' + zs.Uint64())
		}
		return b
	}

	contents := make(map[uint64][]byte)
	insert := func(rid uint64) {
		t.Helper()
		rc := zipfRecord()
		contents[rid] = rc
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clusters {
			if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(rid uint64) {
		t.Helper()
		for _, c := range clusters {
			if err := c.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
				t.Fatal(err)
			}
		}
		delete(contents, rid)
	}
	compare := func(stage string) {
		t.Helper()
		queries := [][]byte{[]byte("ZZZZZZZZZZ"), []byte("AAAAAAAAA")}
		for _, rc := range contents {
			if len(queries) >= 10 {
				break
			}
			if len(rc) >= 10 {
				off := rng.Intn(len(rc) - 9)
				queries = append(queries, rc[off:off+9])
			}
		}
		for qi, q := range queries {
			for _, mode := range []core.VerifyMode{core.VerifyAny, core.VerifyAll, core.VerifyAligned} {
				query, err := pl.BuildQuery(q, mode != core.VerifyAny)
				if err != nil {
					t.Fatal(err)
				}
				want, err := lin.Search(ctx, FileIndex, pl, query, mode)
				if err != nil {
					t.Fatal(err)
				}
				for ci, c := range clusters[:2] {
					got, err := c.Search(ctx, FileIndex, pl, query, mode)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: cluster %d query %d (%q) mode %d: got %v, linear %v",
							stage, ci, qi, q, mode, got, want)
					}
				}
			}
		}
		checkPostingInvariants(t, flatNodes)
		checkPostingInvariants(t, legacyNodes)
	}
	restore := func(nodes []*Node) {
		t.Helper()
		for _, n := range nodes {
			if err := attachCheckpoint(t, n, imageOf(n)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: grow the file through splits.
	for rid := uint64(1); rid <= 100; rid++ {
		insert(rid)
	}
	if flat.coord.File(FileIndex).State.Buckets() < 4 {
		t.Fatalf("index file did not split: %d buckets", flat.coord.File(FileIndex).State.Buckets())
	}
	compare("after growth")

	// Phase 2: mixed churn — overwrites, deletes, fresh inserts.
	nextRID := uint64(101)
	for step := 0; step < 120; step++ {
		var rids []uint64
		for rid := range contents {
			rids = append(rids, rid)
		}
		sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
		switch {
		case step%3 == 0 && len(rids) > 0: // overwrite
			insert(rids[rng.Intn(len(rids))])
		case step%3 == 1 && len(rids) > 20: // delete
			remove(rids[rng.Intn(len(rids))])
		default:
			insert(nextRID)
			nextRID++
		}
	}
	compare("after churn")

	// Phase 3: snapshot/restore the indexed clusters (rebuild path),
	// then shrink hard enough to force merges.
	restore(flatNodes)
	restore(legacyNodes)
	compare("after restore")

	var rids []uint64
	for rid := range contents {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids[:len(rids)-8] {
		remove(rid)
	}
	if flat.coord.File(FileIndex).Merges == 0 {
		t.Error("deletes triggered no merges")
	}
	compare("after deletes and merges")

	// The flat clusters must have actually exercised compaction for this
	// run to prove anything about it.
	var compactions uint64
	for _, n := range flatNodes {
		n.mu.RLock()
		for _, f := range n.files {
			if f.idx != nil {
				compactions += f.idx.stats().compactions
			}
		}
		n.mu.RUnlock()
	}
	if compactions == 0 {
		t.Error("cluster churn triggered no posting-list compactions")
	}
}

// TestSearchConcurrentWithChurn runs searches concurrently with
// insert/delete churn on a flat-index cluster — under -race this proves
// compaction and tombstoning under the node write lock never race with
// the shared-lock search path.
func TestSearchConcurrentWithChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	c, _ := memClusterNodes(t, 3, false)
	c.SetMaxLoad(FileIndex, 8)

	for rid := uint64(1); rid <= 40; rid++ {
		recs, err := pl.BuildIndex(rid, randomRecord(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("ABCABCABC"), false)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny); err != nil {
				t.Errorf("concurrent search: %v", err)
				return
			}
		}
	}()
	churnRng := rand.New(rand.NewSource(32))
	for i := 0; i < 100; i++ {
		rid := uint64(1 + churnRng.Intn(40))
		if i%2 == 0 {
			if err := c.DeleteIndexed(ctx, FileIndex, rid, pl.Chunkings(), pl.K(), slotBits); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := pl.BuildIndex(rid, randomRecord(churnRng))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
