package sdds

import (
	"sort"

	"repro/internal/disperse"
)

// legacyMapIndex reimplements the pre-flat posting index — the
// map[Piece]map[uint64][]uint32 two-level structure — behind the
// postingIndex interface. It exists purely as a differential reference:
// the churn/fuzz battery drives it and the flat index through identical
// op streams and requires identical search results, so any divergence
// in the packed representation is caught against the structure it
// replaced. It keeps its own slot table, so the probe reaches its
// entries the way it reaches the flat index's. Not used in production.
type legacyMapIndex struct {
	post  map[disperse.Piece]map[uint64][]uint32
	ents  []postEntry
	slots map[uint64]uint32
	free  []uint32
}

func newLegacyMapIndex() *legacyMapIndex {
	return &legacyMapIndex{
		post:  make(map[disperse.Piece]map[uint64][]uint32),
		slots: make(map[uint64]uint32),
	}
}

func (x *legacyMapIndex) put(key uint64, value []byte) {
	x.remove(key)
	iv, err := decode[indexValue](value)
	if err != nil {
		return
	}
	e := postEntry{key: key, firstIndex: iv.firstIndex, pieces: iv.pieces}
	if n := len(x.free); n > 0 {
		x.slots[key] = x.free[n-1]
		x.ents[x.free[n-1]] = e
		x.free = x.free[:n-1]
	} else {
		x.slots[key] = uint32(len(x.ents))
		x.ents = append(x.ents, e)
	}
	for off, p := range iv.pieces {
		m := x.post[p]
		if m == nil {
			m = make(map[uint64][]uint32)
			x.post[p] = m
		}
		m[key] = append(m[key], uint32(off))
	}
}

func (x *legacyMapIndex) putBatch(ents []kv) {
	for _, e := range ents {
		x.put(e.key, e.value)
	}
}

func (x *legacyMapIndex) remove(key uint64) {
	s, ok := x.slots[key]
	if !ok {
		return
	}
	for _, p := range x.ents[s].pieces {
		if m := x.post[p]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(x.post, p)
			}
		}
	}
	delete(x.slots, key)
	x.ents[s] = postEntry{}
	x.free = append(x.free, s)
}

func (x *legacyMapIndex) entry(key uint64) (postEntry, bool) {
	s, ok := x.slots[key]
	if !ok {
		return postEntry{}, false
	}
	return x.ents[s], true
}

func (x *legacyMapIndex) at(slot uint32) *postEntry { return &x.ents[slot] }

// postings materializes the two-level map as a packed array, grouped by
// key (searchPosting memoizes the key decomposition across runs of
// equal slots, so grouping is part of the interface contract). The
// allocation per probe is acceptable: this implementation only runs in
// the test battery.
func (x *legacyMapIndex) postings(p disperse.Piece) []posting {
	m := x.post[p]
	if len(m) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var items []posting
	for _, key := range keys {
		for _, off := range m[key] {
			items = append(items, posting{slot: x.slots[key], off: off})
		}
	}
	return items
}

func (x *legacyMapIndex) forEach(fn func(p disperse.Piece, items []posting)) {
	for p := range x.post {
		fn(p, x.postings(p))
	}
}

func (x *legacyMapIndex) stats() indexStats {
	s := indexStats{entries: len(x.slots), pieces: len(x.post)}
	for _, m := range x.post {
		for _, offs := range m {
			s.live += len(offs)
		}
	}
	return s
}

func (x *legacyMapIndex) reset() {
	x.post = make(map[disperse.Piece]map[uint64][]uint32)
	x.ents, x.free = nil, nil
	x.slots = make(map[uint64]uint32)
}
