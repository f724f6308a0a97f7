package sdds

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/transport"
)

// referenceCombine is the map-based combine Cluster.Search ran before
// the agreement table, kept as the differential reference: one map from
// series position to a site mask, one map of series hits per RID, and a
// final sort. A site index of 64 or more is skipped, as it was; the
// reference never sees one, because malformed hits are combineHits'
// error case, not a difference to compare.
func referenceCombine(resps []searchResp, m, kSites, ppc int, mode core.VerifyMode, geom chunk.Params) []uint64 {
	type hitKey struct {
		rid      uint64
		j        int
		a        int
		chunkIdx int
	}
	agree := make(map[hitKey]uint64)
	for _, resp := range resps {
		for _, h := range resp.hits {
			if ppc > 1 && int(h.pieceOffset)%ppc != 0 {
				continue
			}
			if h.k >= 64 {
				continue
			}
			k := hitKey{rid: h.rid, j: int(h.j), a: int(h.a), chunkIdx: int(h.firstIndex) + int(h.pieceOffset)/ppc}
			agree[k] |= 1 << uint(h.k)
		}
	}
	byRID := make(map[uint64][]core.SeriesHit)
	for k, sites := range agree {
		if bits.OnesCount64(sites) == kSites {
			byRID[k.rid] = append(byRID[k.rid], core.SeriesHit{RID: k.rid, J: k.j, A: k.a, ChunkIndex: k.chunkIdx})
		}
	}
	var rids []uint64
	for rid, hits := range byRID {
		if core.CombineHits(hits, m, mode, geom) {
			rids = append(rids, rid)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	return rids
}

// randomHitSet draws the answers of nodes sites for one search. Each of
// a handful of RIDs gets series positions; every site reports each
// position with high probability, so some positions reach full
// agreement and some stay partial. A share of hits is reported twice by
// different nodes, as a migrating bucket's source and target both do;
// with one site, piece offsets are arbitrary, so the ppc filter bites.
func randomHitSet(rng *rand.Rand, nodes, m, kSites, ppc int) []searchResp {
	resps := make([]searchResp, nodes)
	rids := 1 + rng.Intn(12)
	for r := 0; r < rids; r++ {
		rid := uint64(1 + rng.Intn(40))
		for p := rng.Intn(6); p > 0; p-- {
			j, a := rng.Intn(m), rng.Intn(3)
			first := uint32(rng.Intn(4))
			off := uint32(rng.Intn(6 * ppc))
			for k := 0; k < kSites; k++ {
				if rng.Intn(6) == 0 {
					continue // this site misses the position
				}
				h := rawHit{rid: rid, j: uint8(j), k: uint8(k), a: uint16(a), firstIndex: first, pieceOffset: off}
				n := rng.Intn(nodes)
				resps[n].hits = append(resps[n].hits, h)
				if rng.Intn(4) == 0 {
					dup := (n + 1 + rng.Intn(nodes-1)) % nodes
					resps[dup].hits = append(resps[dup].hits, h)
				}
			}
		}
	}
	for _, r := range resps {
		rng.Shuffle(len(r.hits), func(i, j int) { r.hits[i], r.hits[j] = r.hits[j], r.hits[i] })
	}
	return resps
}

// TestCombineMatchesReference drives the agreement table and the map
// combine it replaced over seeded random hit sets — every verify mode,
// several (M, K) shapes including K = 1 with more than one piece per
// chunk, duplicate reports, partial answers with a node missing, and
// empty answers — and requires identical RIDs.
func TestCombineMatchesReference(t *testing.T) {
	const nodes = 3
	shapes := []struct{ m, k, ppc int }{
		{1, 1, 1}, {2, 1, 2}, {4, 1, 3}, {2, 2, 1}, {2, 4, 1}, {4, 3, 1}, {1, 4, 1},
	}
	modes := []core.VerifyMode{core.VerifyAny, core.VerifyAll, core.VerifyAligned}
	check := func(name string, resps []searchResp, m, k, ppc int, mode core.VerifyMode) {
		t.Helper()
		geom := chunk.Params{S: 4, M: m}
		got, err := combineHits(resps, m, k, ppc, mode, geom)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := referenceCombine(resps, m, k, ppc, mode, geom); !slices.Equal(got, want) {
			t.Fatalf("%s: agreement table %v, map reference %v", name, got, want)
		}
	}
	var matched int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := shapes[rng.Intn(len(shapes))]
		resps := randomHitSet(rng, nodes, sh.m, sh.k, sh.ppc)
		for _, mode := range modes {
			name := fmt.Sprintf("seed %d m=%d k=%d ppc=%d mode %s", seed, sh.m, sh.k, sh.ppc, mode)
			check(name, resps, sh.m, sh.k, sh.ppc, mode)
			// A partial answer: one node's reply is missing.
			missing := rng.Intn(nodes)
			partial := slices.Delete(slices.Clone(resps), missing, missing+1)
			check(name+" partial", partial, sh.m, sh.k, sh.ppc, mode)
		}
		if got, _ := combineHits(resps, sh.m, sh.k, sh.ppc, core.VerifyAny, chunk.Params{S: 4, M: sh.m}); len(got) > 0 {
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d of 300 hit sets matched anything: the generator proves too little", matched)
	}
	for _, mode := range modes {
		check("no answers", nil, 2, 2, 1, mode)
		check("empty answers", make([]searchResp, nodes), 2, 2, 1, mode)
	}
}

// TestSearchRejectsForgedSiteAgreement: a node whose hits name a site
// at or beyond K, or a chunking at or beyond M, is malformed and fails
// the search. Counted, such hits let one node complete a series on its
// own: with K = 2, sites 0 and 5 have two bits between them, and a
// chunking 3 of 2 is the second chunking VerifyAll wants.
func TestSearchRejectsForgedSiteAgreement(t *testing.T) {
	pl := testPipeline(t, 4, 2, 2)
	ctx := context.Background()
	cases := []struct {
		name string
		mode core.VerifyMode
		hits []rawHit
	}{
		{"site beyond K", core.VerifyAny, []rawHit{
			{rid: 7, j: 0, k: 0},
			{rid: 7, j: 0, k: 5},
		}},
		{"chunking beyond M", core.VerifyAll, []rawHit{
			{rid: 7, j: 0, k: 0},
			{rid: 7, j: 0, k: 1},
			{rid: 7, j: 3, k: 0},
			{rid: 7, j: 3, k: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := transport.NewMemory()
			ids := []transport.NodeID{0, 1, 2}
			place, err := NewPlacement(ids)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				var hits []rawHit
				if id == 1 {
					hits = tc.hits
				}
				mem.Register(id, func(_ context.Context, op uint8, _ []byte) ([]byte, error) {
					if op != opSearch {
						return nil, fmt.Errorf("stub node: unexpected op %d", op)
					}
					return encode(searchResp{hits: hits}), nil
				})
			}
			query, err := pl.BuildQuery([]byte("FORGED AGREEMENT"), tc.mode != core.VerifyAny)
			if err != nil {
				t.Fatal(err)
			}
			rids, err := NewCluster(mem, place).Search(ctx, FileIndex, pl, query, tc.mode)
			if err == nil {
				t.Fatalf("forged hits accepted: RIDs %v", rids)
			}
			if rids != nil {
				t.Fatalf("failed search still returned RIDs %v", rids)
			}
		})
	}
}

// TestHandleSearchAllocsFlat: a node answers a search with the same
// number of allocations whether it reports ten hits or two thousand —
// the hit scratch is pooled and the answer is one exactly sized buffer.
func TestHandleSearchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	c, nodes := memClusterNodes(t, 1, false)
	insert := func(rid uint64, content string) {
		t.Helper()
		recs, err := pl.BuildIndex(rid, []byte(content))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	for rid := uint64(1); rid <= 5; rid++ {
		insert(rid, fmt.Sprintf("%04d QWERTYUIOP RARE", rid))
	}
	for rid := uint64(6); rid <= 505; rid++ {
		insert(rid, fmt.Sprintf("%04d ASDFGHJKLZ ASDFGHJKLZ", rid))
	}
	measure := func(q string) (hits int, allocs float64) {
		t.Helper()
		query, err := pl.BuildQuery([]byte(q), false)
		if err != nil {
			t.Fatal(err)
		}
		payload := encode(queryToSearchReq(FileIndex, query, pl.Chunkings(), pl.K()))
		out, err := nodes[0].handleSearch(payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decode[searchResp](out)
		if err != nil {
			t.Fatal(err)
		}
		return len(resp.hits), testing.AllocsPerRun(50, func() {
			if _, err := nodes[0].handleSearch(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewHits, fewAllocs := measure("QWERTYUIOP")
	manyHits, manyAllocs := measure("ASDFGHJKLZ")
	t.Logf("%d hits: %.1f allocs; %d hits: %.1f allocs", fewHits, fewAllocs, manyHits, manyAllocs)
	if fewHits == 0 || fewHits > 20 || manyHits < 1500 {
		t.Fatalf("test set-up: %d and %d hits, want about 10 and 2000", fewHits, manyHits)
	}
	if manyAllocs > fewAllocs+1 {
		t.Fatalf("handleSearch allocations grow with hits: %.1f at %d hits, %.1f at %d",
			fewAllocs, fewHits, manyAllocs, manyHits)
	}
}

// cannedResponses builds three nodes' answers holding about n hits in
// all: rids records, each matched at one position by all K sites of
// every chunking, spread over the nodes as dispersal spreads them.
func cannedResponses(rids, m, kSites, perRID int) []searchResp {
	resps := make([]searchResp, 3)
	for rid := uint64(1); rid <= uint64(rids); rid++ {
		for p := 0; p < perRID; p++ {
			for j := 0; j < m; j++ {
				for k := 0; k < kSites; k++ {
					n := (int(rid) + j*kSites + k) % len(resps)
					resps[n].hits = append(resps[n].hits, rawHit{
						rid: rid, j: uint8(j), k: uint8(k), a: uint16(p % 2), firstIndex: uint32(p), pieceOffset: 1,
					})
				}
			}
		}
	}
	return resps
}

// TestCombineAllocsFlat: the client combine allocates the same whether
// the answers hold ten hits or two thousand — only the result slice is
// new; the agreement table and the full-series list are pooled.
func TestCombineAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const m, kSites = 2, 2
	geom := chunk.Params{S: 4, M: m}
	measure := func(resps []searchResp) (hits int, allocs float64) {
		for _, r := range resps {
			hits += len(r.hits)
		}
		return hits, testing.AllocsPerRun(50, func() {
			if _, err := combineHits(resps, m, kSites, 1, core.VerifyAny, geom); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewHits, fewAllocs := measure(cannedResponses(3, m, kSites, 1))
	manyHits, manyAllocs := measure(cannedResponses(100, m, kSites, 5))
	t.Logf("%d hits: %.1f allocs; %d hits: %.1f allocs", fewHits, fewAllocs, manyHits, manyAllocs)
	if manyAllocs > fewAllocs+1 {
		t.Fatalf("combine allocations grow with hits: %.1f at %d hits, %.1f at %d",
			fewAllocs, fewHits, manyAllocs, manyHits)
	}
}
