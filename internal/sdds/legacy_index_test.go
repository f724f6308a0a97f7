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
// replaced. Not used in production.
type legacyMapIndex struct {
	post    map[disperse.Piece]map[uint64][]uint32
	entries map[uint64]postEntry
}

func newLegacyMapIndex() *legacyMapIndex {
	return &legacyMapIndex{
		post:    make(map[disperse.Piece]map[uint64][]uint32),
		entries: make(map[uint64]postEntry),
	}
}

func (x *legacyMapIndex) put(key uint64, value []byte) {
	x.remove(key)
	iv, err := decode[indexValue](value)
	if err != nil {
		return
	}
	x.entries[key] = postEntry{firstIndex: iv.firstIndex, pieces: iv.pieces}
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
	e, ok := x.entries[key]
	if !ok {
		return
	}
	delete(x.entries, key)
	for _, p := range e.pieces {
		if m := x.post[p]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(x.post, p)
			}
		}
	}
}

func (x *legacyMapIndex) entry(key uint64) (postEntry, bool) {
	e, ok := x.entries[key]
	return e, ok
}

// postings materializes the two-level map as a packed array, grouped by
// key (searchPosting memoizes the key decomposition across runs of
// equal keys, so grouping is part of the interface contract). The
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
			items = append(items, posting{key: key, off: off})
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
	s := indexStats{entries: len(x.entries), pieces: len(x.post)}
	for _, m := range x.post {
		for _, offs := range m {
			s.live += len(offs)
		}
	}
	return s
}

func (x *legacyMapIndex) reset() {
	x.post = make(map[disperse.Piece]map[uint64][]uint32)
	x.entries = make(map[uint64]postEntry)
}
