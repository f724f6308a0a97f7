package sdds

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/chunk"
	"repro/internal/core"
)

// seriesPos is one series position the sites vote on: chunking j of
// record rid matched alignment a at chunk index chunk.
type seriesPos struct {
	rid   uint64
	chunk int
	a     uint16
	j     uint8
}

// hash spreads a position over the table's top bits (Fibonacci
// hashing): RIDs and chunk indexes are small and dense, so their
// products with odd constants are mixed before the shift.
func (p seriesPos) hash() uint64 {
	h := p.rid*0x9E3779B97F4A7C15 ^ (uint64(p.chunk)<<24|uint64(p.a)<<8|uint64(p.j))*0xC2B2AE3D27D4EB4F
	return (h ^ h>>29) * 0x9E3779B97F4A7C15
}

// agreeSlot is one table cell; sites == 0 marks it empty, since a
// stored position always has its first reporter's bit set.
type agreeSlot struct {
	seriesPos
	sites uint64
}

// agreement is a search's combine scratch: an open-addressing table
// from series position to the mask of sites that reported it, and the
// positions whose mask filled, each appended once. Pooled, so a search
// allocates neither; a table grown past maxPooledSlots by one huge
// answer is left to the collector.
type agreement struct {
	slots []agreeSlot
	shift uint
	full  []core.SeriesHit
}

var agreementPool = sync.Pool{New: func() any { return new(agreement) }}

const maxPooledSlots = 1 << 16

// reset sizes the table for n hits at a load factor of at most 1/2 and
// empties it.
func (t *agreement) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.slots = make([]agreeSlot, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.full = t.full[:0]
}

// vote records site's report of p and says whether it was the one that
// completed the mask all.
func (t *agreement) vote(p seriesPos, site, all uint64) bool {
	mask := uint64(len(t.slots) - 1)
	for i := p.hash() >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.sites == 0 {
			s.seriesPos, s.sites = p, site
			return site == all
		}
		if s.seriesPos == p {
			old := s.sites
			s.sites |= site
			return old != all && s.sites == all
		}
	}
}

func (t *agreement) release() {
	if len(t.slots) <= maxPooledSlots {
		agreementPool.Put(t)
	}
}

// combineHits folds the sites' raw hits into the sorted RIDs that mode
// accepts. A series position counts once all kSites sites of its
// chunking report it; with one site and ppc pieces per chunk, only
// offsets on a chunk boundary count. A hit naming a site or chunking
// the query does not have is a malformed answer and fails the search,
// as an undecodable one does: counting it could complete a mask no
// honest site set did. A uint64 mask holds every site: the pipeline
// caps a chunk at 64 bits and K divides it.
func combineHits(resps []searchResp, m, kSites, ppc int, mode core.VerifyMode, geom chunk.Params) ([]uint64, error) {
	n := 0
	for _, r := range resps {
		n += len(r.hits)
	}
	if n == 0 {
		return nil, nil
	}
	t := agreementPool.Get().(*agreement)
	defer t.release()
	t.reset(n)
	all := ^uint64(0) >> (64 - kSites)
	for _, r := range resps {
		for _, h := range r.hits {
			if int(h.k) >= kSites || int(h.j) >= m {
				return nil, fmt.Errorf("sdds: malformed search hit: site %d of %d, chunking %d of %d", h.k, kSites, h.j, m)
			}
			if ppc > 1 && int(h.pieceOffset)%ppc != 0 {
				continue
			}
			p := seriesPos{rid: h.rid, chunk: int(h.firstIndex) + int(h.pieceOffset)/ppc, a: h.a, j: h.j}
			if t.vote(p, 1<<h.k, all) {
				t.full = append(t.full, core.SeriesHit{RID: p.rid, J: int(p.j), A: int(p.a), ChunkIndex: p.chunk})
			}
		}
	}
	full := t.full
	if len(full) == 0 {
		return nil, nil
	}
	slices.SortFunc(full, func(x, y core.SeriesHit) int { return cmp.Compare(x.RID, y.RID) })
	runs := 1
	for i := 1; i < len(full); i++ {
		if full[i].RID != full[i-1].RID {
			runs++
		}
	}
	rids := make([]uint64, 0, runs)
	for i := 0; i < len(full); {
		j := i + 1
		for j < len(full) && full[j].RID == full[i].RID {
			j++
		}
		if core.CombineHits(full[i:j], m, mode, geom) {
			rids = append(rids, full[i].RID)
		}
		i = j
	}
	if len(rids) == 0 {
		return nil, nil
	}
	return rids, nil
}
