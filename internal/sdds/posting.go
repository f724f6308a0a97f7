// Flat posting index: the packed per-piece posting representation that
// replaced the original map[Piece]map[uint64][]uint32 structure
// (DESIGN.md §15).
//
// The two-level map paid a per-occurrence inner-map assign and kept a
// separate small slice per (piece, key) pair — fine at 700x over the
// linear scan, but `indexPut` was ~35% of daemon CPU once the wire
// stopped being the bottleneck, with GC assist over the millions of
// tiny slices eating much of the rest. The flat layout stores, per
// piece value, ONE packed array of (slot, offset) postings, where the
// slot indexes a dense entry table, and finds that array in a directory
// indexed by the piece value itself — a piece is a g-bit symbol with
// g <= 16, so no hash is needed:
//
//   - appends are a single slice grow;
//   - the anchor probe of a search walks a contiguous array instead of
//     chasing a map of maps, and reaches each candidate's entry by
//     index, never by hashing its key or its piece — memory locality
//     is the whole point, the same argument Minaud & Reichle make for
//     dynamic local SSE;
//   - deletes tombstone in place (the slot stays, the offset becomes
//     tombstoneOff) and are reclaimed by threshold-triggered
//     compaction, amortized O(1) per mutation; the freed entry slot is
//     reused by the next put.
//
// Compaction policy: a list is compacted in place the moment its dead
// fraction reaches half (lists shorter than compactMinLen are exempt —
// scanning them is cheaper than bookkeeping), and a fully dead list
// resets to the empty list, releasing its backing. Because
// accumulating L/2 tombstones in a list of length L takes L/2 delete
// mutations and a compaction costs O(L), the amortized cost per
// mutation is constant, and no posting list ever exceeds 2x its live
// size — so zipfian piece popularity under delete churn and split/merge
// migrations cannot degenerate a probe into a scan over unbounded
// garbage. Deletes never scan at all: each entry carries positional
// back-references to its postings (see flatEntry), so tombstoning is
// O(occurrences) even when deterministic ECB concentrates a shared
// substring's postings into one huge list. A compaction rewrites the
// moved survivors' back-references as part of its O(L) pass and is
// otherwise local to its list and invisible to concurrent readers
// (all mutations run under the node write lock).
package sdds

import (
	"repro/internal/disperse"
)

// tombstoneOff marks a dead posting. Legitimate stream offsets are
// bounded by the encoded value size (two bytes per piece), so the
// sentinel is unreachable.
const tombstoneOff = ^uint32(0)

// compactMinLen exempts short posting lists from compaction: scanning a
// handful of postings costs less than reclaiming them. A fully dead
// list is emptied regardless of length.
const compactMinLen = 16

// posting is one occurrence of a piece value: the slot of the owning
// entry in the index's dense entry table and the offset within that
// entry's piece stream. Eight bytes, and the probe reaches the entry by
// indexing, not by hashing a key.
type posting struct {
	slot uint32
	off  uint32
}

// postList is the packed posting array of one piece value plus its
// tombstone count. dead <= len(items) always; after every mutation the
// compaction invariant 2*dead < len(items) || len(items) < compactMinLen
// holds (asserted by the churn test battery). An empty list is the zero
// postList: no backing, nothing dead.
type postList struct {
	items []posting
	dead  uint32
}

// indexStats is a point-in-time summary of a posting index, used by the
// invariant tests and surfaced through node metrics.
type indexStats struct {
	entries     int    // indexed composite keys
	pieces      int    // distinct piece values with a posting list
	live        int    // live postings
	dead        int    // tombstoned postings awaiting compaction
	compactions uint64 // compaction epochs so far (flat index only)
	tombstones  uint64 // tombstones ever written (flat index only)
}

// postingIndex is the node-side inverted index over encrypted piece
// values. Two implementations exist: the production flatIndex below and
// the legacy two-level map index, kept in the test battery as a
// differential reference. All methods require the node write lock
// (entry/postings/at/forEach/stats tolerate the read lock).
type postingIndex interface {
	// put (re)indexes one stored value; values that do not decode as
	// index pieces (foreign entries) are removed/kept out, mirroring the
	// linear scan's skip.
	put(key uint64, value []byte)
	// putBatch indexes a batch of stored values in one call, appending
	// each entry's postings as put appends them; ents is not kept.
	// Duplicate keys within the batch resolve to the last occurrence.
	putBatch(ents []kv)
	// remove deletes one key's postings and its entry.
	remove(key uint64)
	// entry returns the decoded piece stream of an indexed key.
	entry(key uint64) (postEntry, bool)
	// postings returns the packed posting array of a piece value —
	// including tombstones, which callers skip by off == tombstoneOff.
	// A live posting's entry holds the piece at the posting's offset, and
	// a key's live postings sit adjacent, offsets ascending. The returned
	// slice is the index's own storage: read-only, valid only while the
	// node lock is held.
	postings(p disperse.Piece) []posting
	// at returns the entry a live posting's slot names, read-only under
	// the node lock. A tombstone's slot may since have been recycled.
	at(slot uint32) *postEntry
	// forEach visits every (piece, posting array) pair.
	forEach(fn func(p disperse.Piece, items []posting))
	// stats summarizes the index.
	stats() indexStats
	// reset empties the index, keeping reusable scratch.
	reset()
}

// flatIndex is the production postingIndex: packed per-piece posting
// arrays with tombstoned deletes and threshold-triggered compaction.
// post is the piece directory: piece value p's list lives at post[p].
// A piece is one g-bit symbol of GF(2^g) with g <= 16, so its value is
// its own perfect hash and reaching a list is one array index, never a
// hash and probe. The directory is nil until the index's first posting
// (an empty index costs nothing) and 1<<16 lists of 32 B, 2 MiB, after.
// Entries live in the dense ents table, addressed by the slot every
// posting carries; slots maps a key to its slot and is consulted only
// by put and remove, and a removed entry's slot goes on free for the
// next put to reuse. met, when non-nil, receives compaction/tombstone
// counts (nil-safe obs counters, so an uninstrumented node pays
// nothing).
type flatIndex struct {
	post  *[1 << 16]postList
	ents  []flatEntry
	slots map[uint64]uint32
	free  []uint32

	compactions uint64
	tombstones  uint64
	met         *nodeMetrics
}

// flatEntry is postEntry plus the positional back-references that make
// deletes O(occurrences): pos[i] is the index, in piece pieces[i]'s
// posting list, of this entry's i-th posting. Without them a delete
// would scan whole posting lists for the entry — O(list length), which
// degenerates catastrophically on hot pieces (phonebook records share
// the area-code substring, so a few piece values list nearly every
// record). Compaction moves postings, so it rewrites the survivors'
// back-references, through their slots, as part of its O(L) pass. A
// free slot holds the zero flatEntry.
type flatEntry struct {
	postEntry
	pos []uint32
}

// dedupeScanMax is the largest batch putBatch dedupes by scanning its
// later entries; a larger one builds a key set for the call.
const dedupeScanMax = 32

func newFlatIndex(met *nodeMetrics) *flatIndex {
	return &flatIndex{
		slots: make(map[uint64]uint32),
		met:   met,
	}
}

// alloc stores e in a free slot, or a new one, and maps its key there.
func (x *flatIndex) alloc(e flatEntry) uint32 {
	var s uint32
	if n := len(x.free); n > 0 {
		s = x.free[n-1]
		x.free = x.free[:n-1]
		x.ents[s] = e
	} else {
		s = uint32(len(x.ents))
		x.ents = append(x.ents, e)
	}
	x.slots[e.key] = s
	return s
}

// appendPostings lists every piece occurrence of the entry in slot s
// and records its back-references. The entry must already sit in its
// slot: a compaction fired mid-loop rewrites back-references through
// it. Appending entry by entry leaves each entry's postings in a list
// adjacent, offsets ascending — the layout searchPosting's per-slot
// memoization wants.
func (x *flatIndex) appendPostings(s uint32) {
	e := &x.ents[s]
	if x.post == nil && len(e.pieces) > 0 {
		x.post = new([1 << 16]postList)
	}
	for off, p := range e.pieces {
		l := &x.post[p]
		l.items = append(l.items, posting{slot: s, off: uint32(off)})
		e.pos[off] = uint32(len(l.items) - 1)
		// Appends can only lower the dead fraction — except when they push
		// a short list (exempt from compaction) past compactMinLen with
		// tombstones already aboard, so the trigger is re-checked here too.
		if l.dead > 0 {
			x.maybeCompact(l)
		}
	}
}

func (x *flatIndex) put(key uint64, value []byte) {
	// Overwrite detection is this single slots lookup: fresh keys pay
	// one map miss, no piece walk.
	x.remove(key)
	n, ok := indexValuePieceCount(value)
	if !ok {
		return // foreign value: stays out of the index
	}
	// Cannot fail: it accepts exactly what the peek accepted.
	iv, _, _ := decodeIndexValueInto(value, make([]disperse.Piece, 0, n))
	x.appendPostings(x.alloc(flatEntry{
		postEntry: postEntry{key: key, firstIndex: iv.firstIndex, pieces: iv.pieces},
		pos:       make([]uint32, len(iv.pieces)),
	}))
}

func (x *flatIndex) putBatch(ents []kv) {
	if len(ents) == 0 {
		return
	}
	if len(ents) == 1 {
		x.put(ents[0].key, ents[0].value)
		return
	}
	// One piece arena for the whole batch: the peeked counts bound the
	// total exactly, so the carved entry streams never move.
	total := 0
	for _, e := range ents {
		if n, ok := indexValuePieceCount(e.value); ok {
			total += n
		}
	}
	arena := make([]disperse.Piece, 0, total)
	// posArena is carved in lockstep with arena: each entry's pos slice
	// covers the same index range as its pieces slice.
	posArena := make([]uint32, total)
	// A small batch finds a duplicate by scanning its later entries; a
	// large one (an absorb, a rebuild) builds a key set for this call
	// only — clearing a retained set costs its high-water capacity on
	// every later batch, however small.
	var seen map[uint64]struct{}
	if len(ents) > dedupeScanMax {
		seen = make(map[uint64]struct{}, len(ents))
	}
	// Walk the batch backwards so a duplicated key resolves to its last
	// occurrence — the same state a sequential put-by-put apply ends in.
	for i := len(ents) - 1; i >= 0; i-- {
		e := ents[i]
		if seen != nil {
			if _, dup := seen[e.key]; dup {
				continue
			}
			seen[e.key] = struct{}{}
		} else if laterKey(ents[i+1:], e.key) {
			continue
		}
		x.remove(e.key)
		start := len(arena)
		iv, rest, err := decodeIndexValueInto(e.value, arena)
		if err != nil {
			continue
		}
		arena = rest
		x.appendPostings(x.alloc(flatEntry{
			postEntry: postEntry{key: e.key, firstIndex: iv.firstIndex, pieces: iv.pieces},
			pos:       posArena[start:len(arena):len(arena)],
		}))
	}
}

// laterKey reports whether key occurs in ents.
func laterKey(ents []kv, key uint64) bool {
	for _, e := range ents {
		if e.key == key {
			return true
		}
	}
	return false
}

// remove tombstones key's postings and frees its slot.
func (x *flatIndex) remove(key uint64) {
	s, ok := x.slots[key]
	if !ok {
		return
	}
	x.tombstoneEntry(s)
	delete(x.slots, key)
	x.ents[s] = flatEntry{}
	x.free = append(x.free, s)
}

// tombstoneEntry marks every posting of the entry in slot s dead by
// direct index — the back-references make this O(occurrences),
// independent of list lengths. All occurrences are marked before any
// list is compacted: a compaction moves postings and only rewrites LIVE
// back-references, so marking must not race it within one entry. Each
// distinct piece list is then compacted at most once (duplicate pieces
// within the stream are skipped by the first-occurrence check — streams
// are short, so the quadratic check beats allocating a set).
func (x *flatIndex) tombstoneEntry(s uint32) {
	e := &x.ents[s]
	var marked uint32
	for i, p := range e.pieces {
		l := &x.post[p]
		idx := int(e.pos[i])
		if idx >= len(l.items) || l.items[idx].slot != s {
			continue // never under the back-reference invariant
		}
		if l.items[idx].off != tombstoneOff {
			l.items[idx].off = tombstoneOff
			l.dead++
			marked++
		}
	}
	if marked == 0 {
		return
	}
	x.tombstones += uint64(marked)
	if x.met != nil {
		x.met.indexTombstones.Add(uint64(marked))
	}
outer:
	for i, p := range e.pieces {
		for _, q := range e.pieces[:i] {
			if q == p {
				continue outer
			}
		}
		if l := &x.post[p]; l.dead > 0 {
			x.maybeCompact(l)
		}
	}
}

// maybeCompact reclaims a list once at least half of it is dead: live
// postings are packed to the front in place, order preserved. A fully
// dead list resets to the zero postList, releasing its backing; a
// mostly dead one also releases an oversized backing. Amortized O(1)
// per mutation — see the package comment.
func (x *flatIndex) maybeCompact(l *postList) {
	n := len(l.items)
	if int(l.dead) == n {
		*l = postList{}
		x.noteCompaction()
		return
	}
	if n < compactMinLen || int(l.dead)*2 < n {
		return
	}
	live := l.items[:0]
	for _, pt := range l.items {
		if pt.off != tombstoneOff {
			live = append(live, pt)
		}
	}
	if cap(l.items) > compactMinLen && len(live)*4 <= cap(l.items) {
		// The live set is a small fraction of the backing: reallocate so
		// a once-hot piece does not pin its high-water-mark array.
		live = append(make([]posting, 0, len(live)*2), live...)
	}
	l.items = live
	l.dead = 0
	// Survivors moved: rewrite their owners' back-references.
	for i, pt := range l.items {
		x.ents[pt.slot].pos[pt.off] = uint32(i)
	}
	x.noteCompaction()
}

func (x *flatIndex) noteCompaction() {
	x.compactions++
	if x.met != nil {
		x.met.indexCompactions.Inc()
	}
}

func (x *flatIndex) entry(key uint64) (postEntry, bool) {
	s, ok := x.slots[key]
	if !ok {
		return postEntry{}, false
	}
	return x.ents[s].postEntry, true
}

func (x *flatIndex) postings(p disperse.Piece) []posting {
	if x.post == nil {
		return nil
	}
	return x.post[p].items
}

func (x *flatIndex) at(slot uint32) *postEntry { return &x.ents[slot].postEntry }

// forEach visits the non-empty lists in piece order.
func (x *flatIndex) forEach(fn func(p disperse.Piece, items []posting)) {
	if x.post == nil {
		return
	}
	for p := range x.post {
		if items := x.post[p].items; len(items) > 0 {
			fn(disperse.Piece(p), items)
		}
	}
}

func (x *flatIndex) stats() indexStats {
	s := indexStats{
		entries:     len(x.slots),
		compactions: x.compactions,
		tombstones:  x.tombstones,
	}
	x.forEach(func(p disperse.Piece, items []posting) {
		dead := int(x.post[p].dead)
		s.pieces++
		s.dead += dead
		s.live += len(items) - dead
	})
	return s
}

// reset empties the index, directory included. Every non-empty list
// holds a live posting (a fully dead one is emptied on the spot), so
// emptying the lists the live entries name clears the directory in
// O(postings) rather than O(2^16).
func (x *flatIndex) reset() {
	for i := range x.ents {
		for _, p := range x.ents[i].pieces {
			x.post[p] = postList{}
		}
	}
	clear(x.ents)
	x.ents = x.ents[:0]
	x.free = x.free[:0]
	clear(x.slots)
}
