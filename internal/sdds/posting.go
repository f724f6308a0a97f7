// Flat posting index: the packed per-piece posting representation that
// replaced the original map[Piece]map[uint64][]uint32 structure
// (DESIGN.md §15).
//
// The two-level map paid a per-occurrence inner-map assign and kept a
// separate small slice per (piece, key) pair — fine at 700x over the
// linear scan, but `indexPut` was ~35% of daemon CPU once the wire
// stopped being the bottleneck, with GC assist over the millions of
// tiny slices eating much of the rest. The flat layout stores, per
// piece value, ONE packed array of (key, offset) postings:
//
//   - appends are a single slice grow (batched: one grow per distinct
//     piece for a whole request batch);
//   - the anchor probe of a search walks a contiguous array instead of
//     chasing a map of maps — memory locality is the whole point, the
//     same argument Minaud & Reichle make for dynamic local SSE;
//   - deletes tombstone in place (the key stays, the offset becomes
//     tombstoneOff) and are reclaimed by threshold-triggered
//     compaction, amortized O(1) per mutation.
//
// Compaction policy: a list is compacted in place the moment its dead
// fraction reaches half (lists shorter than compactMinLen are exempt —
// scanning them is cheaper than bookkeeping), and a fully dead list is
// dropped from the piece map entirely. Because accumulating L/2
// tombstones in a list of length L takes L/2 delete mutations and a
// compaction costs O(L), the amortized compaction cost per mutation is
// constant, and no posting list ever exceeds 2x its live size — so
// zipfian piece popularity under delete churn and split/merge
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
// list is dropped regardless of length.
const compactMinLen = 16

// posting is one occurrence of a piece value: the composite entry key
// and the offset within that entry's piece stream.
type posting struct {
	key uint64
	off uint32
}

// postList is the packed posting array of one piece value plus its
// tombstone count. dead <= len(items) always; after every mutation the
// compaction invariant 2*dead < len(items) || len(items) < compactMinLen
// holds (asserted by the churn test battery).
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
// (postings/entry/forEach/stats tolerate the read lock).
type postingIndex interface {
	// put (re)indexes one stored value; values that do not decode as
	// index pieces (foreign entries) are removed/kept out, mirroring the
	// linear scan's skip.
	put(key uint64, value []byte)
	// putBatch indexes a batch of stored values in one pass, grouping
	// posting appends per piece. Duplicate keys within the batch resolve
	// to the last occurrence.
	putBatch(ents []kv)
	// remove deletes one key's postings and its entry.
	remove(key uint64)
	// entry returns the decoded piece stream of an indexed key.
	entry(key uint64) (postEntry, bool)
	// postings returns the packed posting array of a piece value —
	// including tombstones, which callers skip by off == tombstoneOff.
	// The returned slice is the index's own storage: read-only, valid
	// only while the node lock is held.
	postings(p disperse.Piece) []posting
	// forEach visits every (piece, posting array) pair.
	forEach(fn func(p disperse.Piece, items []posting))
	// stats summarizes the index.
	stats() indexStats
	// reset empties the index, keeping reusable scratch.
	reset()
}

// flatIndex is the production postingIndex: packed per-piece posting
// arrays with tombstoned deletes and threshold-triggered compaction.
// met, when non-nil, receives compaction/tombstone counts (nil-safe
// obs counters, so an uninstrumented node pays nothing).
type flatIndex struct {
	post    map[disperse.Piece]*postList
	entries map[uint64]flatEntry

	compactions uint64
	tombstones  uint64
	met         *nodeMetrics

	// batch scratch, reused across putBatch calls (mutations run under
	// the node write lock, so there is exactly one user at a time).
	apps    []pieceApp
	grouped []pieceApp
	seen    map[uint64]struct{}
	counts  []uint32 // per-piece counting-sort cursors, len 1<<16
	touched []disperse.Piece
}

// flatEntry is postEntry plus the positional back-references that make
// deletes O(occurrences): pos[i] is the index, in piece pieces[i]'s
// posting list, of this entry's i-th posting. Without them a delete
// would scan whole posting lists for the key — O(list length), which
// degenerates catastrophically on hot pieces (phonebook records share
// the area-code substring, so a few piece values list nearly every
// record). Compaction moves postings, so it rewrites the survivors'
// back-references as part of its O(L) pass.
type flatEntry struct {
	postEntry
	pos []uint32
}

// pieceApp is one queued posting append of a batch: grouped by piece so
// the whole batch touches each posting list exactly once. slot points
// at the owning entry's back-reference for this occurrence, written
// when the posting lands in its list.
type pieceApp struct {
	p    disperse.Piece
	key  uint64
	off  uint32
	slot *uint32
}

func newFlatIndex(met *nodeMetrics) *flatIndex {
	return &flatIndex{
		post:    make(map[disperse.Piece]*postList),
		entries: make(map[uint64]flatEntry),
		met:     met,
	}
}

func (x *flatIndex) put(key uint64, value []byte) {
	// Overwrite detection is this single entries lookup: fresh keys pay
	// one map miss, no piece walk. (The old index ran a full
	// indexDelete — two map lookups plus a piece walk — on every put.)
	if old, existed := x.entries[key]; existed {
		x.tombstoneEntry(key, old)
		delete(x.entries, key)
	}
	iv, err := decode[indexValue](value)
	if err != nil {
		return // foreign value: stays out of the index
	}
	pos := make([]uint32, len(iv.pieces))
	// The entry must be in the map before the appends: a compaction
	// fired mid-loop rewrites back-references through it.
	x.entries[key] = flatEntry{
		postEntry: postEntry{firstIndex: iv.firstIndex, pieces: iv.pieces},
		pos:       pos,
	}
	for off, p := range iv.pieces {
		l := x.post[p]
		if l == nil {
			l = &postList{}
			x.post[p] = l
		}
		l.items = append(l.items, posting{key: key, off: uint32(off)})
		pos[off] = uint32(len(l.items) - 1)
		// Appends can only lower the dead fraction — except when they push
		// a short list (exempt from compaction) past compactMinLen with
		// tombstones already aboard, so the trigger is re-checked here too.
		if l.dead > 0 {
			x.maybeCompact(p, l)
		}
	}
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
	// covers the same index range as its pieces slice. Full-length up
	// front so the slot pointers below never move.
	posArena := make([]uint32, total)
	apps := x.apps[:0]
	if x.seen == nil {
		x.seen = make(map[uint64]struct{}, len(ents))
	} else {
		clear(x.seen)
	}
	// Walk the batch backwards so a duplicated key resolves to its last
	// occurrence — the same state a sequential put-by-put apply ends in.
	for i := len(ents) - 1; i >= 0; i-- {
		e := ents[i]
		if _, dup := x.seen[e.key]; dup {
			continue
		}
		x.seen[e.key] = struct{}{}
		if old, existed := x.entries[e.key]; existed {
			x.tombstoneEntry(e.key, old)
			delete(x.entries, e.key)
		}
		start := len(arena)
		iv, rest, err := decodeIndexValueInto(e.value, arena)
		if err != nil {
			continue
		}
		arena = rest
		pos := posArena[start:len(arena):len(arena)]
		x.entries[e.key] = flatEntry{
			postEntry: postEntry{firstIndex: iv.firstIndex, pieces: iv.pieces},
			pos:       pos,
		}
		for off, p := range iv.pieces {
			apps = append(apps, pieceApp{p: p, key: e.key, off: uint32(off), slot: &pos[off]})
		}
	}
	// Group by piece: one map lookup and one (amortized) slice grow per
	// distinct piece for the entire batch. A stable two-pass counting
	// sort on the uint16 piece value does the grouping in O(n) — a
	// comparison sort's log factor was measured to dominate the whole
	// batch path. Stability preserves emission order within a piece,
	// which already has each key's postings adjacent with offsets
	// ascending — the layout searchPosting's key memoization wants.
	if x.counts == nil {
		x.counts = make([]uint32, 1<<16)
	}
	touched := x.touched[:0]
	for _, a := range apps {
		c := x.counts[a.p]
		if c == 0 {
			touched = append(touched, a.p)
		}
		x.counts[a.p] = c + 1
	}
	pos := uint32(0)
	for _, p := range touched {
		n := x.counts[p]
		x.counts[p] = pos
		pos += n
	}
	grouped := x.grouped
	if cap(grouped) < len(apps) {
		grouped = make([]pieceApp, len(apps))
	} else {
		grouped = grouped[:len(apps)]
	}
	for _, a := range apps {
		grouped[x.counts[a.p]] = a
		x.counts[a.p]++
	}
	for i := 0; i < len(grouped); {
		j := i + 1
		for j < len(grouped) && grouped[j].p == grouped[i].p {
			j++
		}
		l := x.post[grouped[i].p]
		if l == nil {
			l = &postList{}
			x.post[grouped[i].p] = l
		}
		// Every slot of this list's group is written before the trigger
		// re-check: a compaction rewrites back-references, so none of the
		// postings it moves may have an unset slot.
		for _, a := range grouped[i:j] {
			l.items = append(l.items, posting{key: a.key, off: a.off})
			*a.slot = uint32(len(l.items) - 1)
		}
		if l.dead > 0 {
			x.maybeCompact(grouped[i].p, l)
		}
		i = j
	}
	for _, p := range touched {
		x.counts[p] = 0
	}
	x.touched = touched[:0]
	x.grouped = grouped[:0]
	x.apps = apps[:0]
}

func (x *flatIndex) remove(key uint64) {
	e, ok := x.entries[key]
	if !ok {
		return
	}
	delete(x.entries, key)
	x.tombstoneEntry(key, e)
}

// tombstoneEntry marks every posting of key dead by direct index — the
// back-references make this O(occurrences), independent of list
// lengths. All occurrences are marked before any list is compacted:
// a compaction moves postings and only rewrites LIVE back-references,
// so marking must not race it within one entry. Each distinct piece
// list is then compacted at most once (duplicate pieces within the
// stream are skipped by the first-occurrence check — streams are
// short, so the quadratic check beats allocating a set).
func (x *flatIndex) tombstoneEntry(key uint64, e flatEntry) {
	var marked uint32
	for i, p := range e.pieces {
		l := x.post[p]
		idx := int(e.pos[i])
		if l == nil || idx >= len(l.items) || l.items[idx].key != key {
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
		if l := x.post[p]; l != nil && l.dead > 0 {
			x.maybeCompact(p, l)
		}
	}
}

// maybeCompact reclaims a list once at least half of it is dead: live
// postings are packed to the front in place, order preserved. A fully
// dead list leaves the piece map entirely; a mostly dead one also
// releases its oversized backing. Amortized O(1) per mutation — see the
// package comment.
func (x *flatIndex) maybeCompact(p disperse.Piece, l *postList) {
	n := len(l.items)
	if int(l.dead) == n {
		delete(x.post, p)
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
	// Survivors moved: rewrite their owners' back-references. Postings
	// of one key are adjacent, so the entry lookup is memoized per run.
	var (
		lastKey uint64
		pos     []uint32
		have    bool
	)
	for i, pt := range l.items {
		if !have || pt.key != lastKey {
			e, ok := x.entries[pt.key]
			if !ok {
				continue // never: live postings always have an owner entry
			}
			pos, lastKey, have = e.pos, pt.key, true
		}
		pos[pt.off] = uint32(i)
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
	e, ok := x.entries[key]
	return e.postEntry, ok
}

func (x *flatIndex) postings(p disperse.Piece) []posting {
	l := x.post[p]
	if l == nil {
		return nil
	}
	return l.items
}

func (x *flatIndex) forEach(fn func(p disperse.Piece, items []posting)) {
	for p, l := range x.post {
		fn(p, l.items)
	}
}

func (x *flatIndex) stats() indexStats {
	s := indexStats{
		entries:     len(x.entries),
		pieces:      len(x.post),
		compactions: x.compactions,
		tombstones:  x.tombstones,
	}
	for _, l := range x.post {
		s.dead += int(l.dead)
		s.live += len(l.items) - int(l.dead)
	}
	return s
}

func (x *flatIndex) reset() {
	x.post = make(map[disperse.Piece]*postList)
	x.entries = make(map[uint64]flatEntry)
}
