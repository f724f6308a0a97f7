package sdds

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/transport"
)

// referenceCombine is the map-based combine Cluster.Search ran before
// the agreement table, kept as the differential reference: it decodes
// every answer into rawHits, then builds one map from series position
// to a site mask, one map of series hits per RID, and a final sort. A
// site index of 64 or more is skipped, as it was; the reference never
// sees one, because malformed hits are combineHits' error case, not a
// difference to compare. It fails where an answer does not decode.
func referenceCombine(payloads [][]byte, m, kSites, ppc int, mode core.VerifyMode, geom chunk.Params) ([]uint64, error) {
	resps := make([]searchResp, len(payloads))
	for i, b := range payloads {
		var err error
		if resps[i], err = decode[searchResp](b); err != nil {
			return nil, err
		}
	}
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
	return rids, nil
}

// encodeAnswers encodes each node's answer as it crosses the wire.
func encodeAnswers(resps []searchResp) [][]byte {
	out := make([][]byte, len(resps))
	for i, r := range resps {
		out[i] = encode(r)
	}
	return out
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

// combineShapes are the (M, K, pieces per chunk) shapes the combine
// tests draw from, including K = 1 with more than one piece per chunk.
var combineShapes = []struct{ m, k, ppc int }{
	{1, 1, 1}, {2, 1, 2}, {4, 1, 3}, {2, 2, 1}, {2, 4, 1}, {4, 3, 1}, {1, 4, 1},
}

var combineModes = []core.VerifyMode{core.VerifyAny, core.VerifyAll, core.VerifyAligned}

// TestCombineMatchesReference drives the wire-reading agreement table
// and the decoding map combine it replaced over seeded random hit sets,
// encoded as the nodes send them — every verify mode, several (M, K)
// shapes, duplicate reports, partial answers with a node missing, and
// empty answers — and requires identical RIDs.
func TestCombineMatchesReference(t *testing.T) {
	const nodes = 3
	check := func(name string, resps []searchResp, m, k, ppc int, mode core.VerifyMode) {
		t.Helper()
		geom := chunk.Params{S: 4, M: m}
		payloads := encodeAnswers(resps)
		got, err := combineHits(payloads, m, k, ppc, mode, geom)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceCombine(payloads, m, k, ppc, mode, geom)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: agreement table %v, map reference %v", name, got, want)
		}
	}
	var matched int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := combineShapes[rng.Intn(len(combineShapes))]
		resps := randomHitSet(rng, nodes, sh.m, sh.k, sh.ppc)
		for _, mode := range combineModes {
			name := fmt.Sprintf("seed %d m=%d k=%d ppc=%d mode %s", seed, sh.m, sh.k, sh.ppc, mode)
			check(name, resps, sh.m, sh.k, sh.ppc, mode)
			// A partial answer: one node's reply is missing.
			missing := rng.Intn(nodes)
			partial := slices.Delete(slices.Clone(resps), missing, missing+1)
			check(name+" partial", partial, sh.m, sh.k, sh.ppc, mode)
		}
		if got, _ := combineHits(encodeAnswers(resps), sh.m, sh.k, sh.ppc, core.VerifyAny, chunk.Params{S: 4, M: sh.m}); len(got) > 0 {
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d of 300 hit sets matched anything: the generator proves too little", matched)
	}
	for _, mode := range combineModes {
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

// stubSearchCluster is a three-node cluster whose node i answers every
// search with the bytes answers[i].
func stubSearchCluster(t *testing.T, answers [3][]byte) *Cluster {
	t.Helper()
	mem := transport.NewMemory()
	ids := []transport.NodeID{0, 1, 2}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		answer := answers[i]
		mem.Register(id, func(_ context.Context, op uint8, _ []byte) ([]byte, error) {
			if op != opSearch {
				return nil, fmt.Errorf("stub node: unexpected op %d", op)
			}
			return answer, nil
		})
	}
	return NewCluster(mem, place)
}

// TestSearchCombineRejectsMalformedAnswers: an answer that is shorter
// than its count, counts more hits than its bytes hold, or carries bytes
// past its last hit fails the search with the error decode[searchResp]
// reports on the same bytes; one that decodes but names a site or
// chunking the query lacks fails it as malformed. Either way the search
// returns no RIDs, although the other two nodes' answers alone match
// record 7.
func TestSearchCombineRejectsMalformedAnswers(t *testing.T) {
	pl := testPipeline(t, 4, 2, 2)
	ctx := context.Background()
	query, err := pl.BuildQuery([]byte("MALFORMED ANSWER"), false)
	if err != nil {
		t.Fatal(err)
	}
	search := func(answer []byte) ([]uint64, error) {
		return stubSearchCluster(t, [3][]byte{
			encode(searchResp{hits: []rawHit{{rid: 7, j: 0, k: 0}}}),
			answer,
			encode(searchResp{hits: []rawHit{{rid: 7, j: 0, k: 1}}}),
		}).Search(ctx, FileIndex, pl, query, core.VerifyAny)
	}
	if rids, err := search(encode(searchResp{})); err != nil || !slices.Equal(rids, []uint64{7}) {
		t.Fatalf("honest answers: RIDs %v, %v; want [7]", rids, err)
	}
	two := encode(searchResp{hits: []rawHit{{rid: 9, k: 0}, {rid: 9, k: 1}}})
	overCount := slices.Clone(two)
	binary.BigEndian.PutUint32(overCount, 3)
	cases := []struct {
		name   string
		answer []byte
		forged bool
	}{
		{"shorter than a count", []byte{0, 0, 1}, false},
		{"count beyond the bytes", overCount, false},
		{"trailing bytes", append(slices.Clone(two), 1, 2, 3), false},
		{"forged site", encode(searchResp{hits: []rawHit{{rid: 7, j: 0, k: 2}}}), true},
		{"forged chunking", encode(searchResp{hits: []rawHit{{rid: 7, j: 2, k: 1}}}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rids, err := search(tc.answer)
			if err == nil || rids != nil {
				t.Fatalf("malformed answer accepted: RIDs %v, %v", rids, err)
			}
			decErr := decodeErr[searchResp](tc.answer)
			if tc.forged {
				if decErr != nil || !strings.Contains(err.Error(), "malformed search hit") {
					t.Fatalf("search error %q, decode error %v; want a malformed hit that decodes", err, decErr)
				}
			} else if decErr == nil || err.Error() != decErr.Error() {
				t.Fatalf("search error %q, decode error %v; want the same", err, decErr)
			}
		})
	}
}

// forgedHit reports whether decoded answers name a site at or beyond
// kSites or a chunking at or beyond m.
func forgedHit(resps []searchResp, m, kSites int) bool {
	for _, r := range resps {
		for _, h := range r.hits {
			if int(h.k) >= kSites || int(h.j) >= m {
				return true
			}
		}
	}
	return false
}

// FuzzSearchCombine: the combine survives one to three arbitrary
// answers. If one does not decode, it fails with decode's error for the
// first such answer; if one names a forged site or chunking, it fails;
// otherwise it returns the decoding reference's RIDs. shape picks the
// (M, K, pieces per chunk) shape and the verify mode.
func FuzzSearchCombine(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := uint8(rng.Intn(256))
		sh := combineShapes[int(shape)%len(combineShapes)]
		p := encodeAnswers(randomHitSet(rng, 3, sh.m, sh.k, sh.ppc))
		f.Add(p[0], p[1], p[2], uint8(seed), shape)
	}
	f.Add([]byte{}, []byte{0, 0, 0, 1}, []byte{0, 0, 0, 0, 9}, uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c []byte, count, shape uint8) {
		payloads := [][]byte{a, b, c}[:1+int(count)%3]
		sh := combineShapes[int(shape)%len(combineShapes)]
		mode := combineModes[int(shape)/len(combineShapes)%len(combineModes)]
		geom := chunk.Params{S: 4, M: sh.m}
		got, err := combineHits(payloads, sh.m, sh.k, sh.ppc, mode, geom)
		if err != nil && got != nil {
			t.Fatalf("failed combine returned RIDs %v: %v", got, err)
		}
		resps := make([]searchResp, len(payloads))
		for i, p := range payloads {
			var decErr error
			if resps[i], decErr = decode[searchResp](p); decErr != nil {
				if err == nil || err.Error() != decErr.Error() {
					t.Fatalf("answer %d does not decode: combine error %v, decode error %v", i, err, decErr)
				}
				return
			}
		}
		if forgedHit(resps, sh.m, sh.k) {
			if err == nil {
				t.Fatalf("forged hit accepted: RIDs %v", got)
			}
			return
		}
		// Only now: the reference counts forged hits, and a forged
		// chunking panics its VerifyAligned geometry.
		want, _ := referenceCombine(payloads, sh.m, sh.k, sh.ppc, mode, geom)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("combine %v, %v; reference %v", got, err, want)
		}
	})
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

// cannedAnswers encodes three nodes' answers for rids records, each
// matched at perRID positions by all K sites of one chunking and spread
// over the nodes as dispersal spreads them: rids·perRID·kSites hits.
// The RIDs are scattered (i·2654435761 mod 2^32), since a node reports
// hits in posting order, not sorted by RID.
func cannedAnswers(rids, m, kSites, perRID int) [][]byte {
	resps := make([]searchResp, 3)
	for i := 1; i <= rids; i++ {
		rid := uint64(uint32(i * 2654435761))
		for p := 0; p < perRID; p++ {
			j := (i + p) % m
			for k := 0; k < kSites; k++ {
				n := (i + j*kSites + k) % len(resps)
				resps[n].hits = append(resps[n].hits, rawHit{
					rid: rid, j: uint8(j), k: uint8(k), a: uint16(p % 2), firstIndex: uint32(p), pieceOffset: 1,
				})
			}
		}
	}
	return encodeAnswers(resps)
}

// TestCombineAllocsFlat: combining encoded answers allocates once — the
// result — whether they hold ten hits or two thousand: nothing is
// decoded into hit structs, and the agreement table and full-position
// list are pooled.
func TestCombineAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const m, kSites = 2, 2
	geom := chunk.Params{S: 4, M: m}
	measure := func(payloads [][]byte) (hits int, allocs float64) {
		for _, b := range payloads {
			n, err := hitCount(b)
			if err != nil {
				t.Fatal(err)
			}
			hits += n
		}
		return hits, testing.AllocsPerRun(50, func() {
			if _, err := combineHits(payloads, m, kSites, 1, core.VerifyAny, geom); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewHits, fewAllocs := measure(cannedAnswers(5, m, kSites, 1))
	manyHits, manyAllocs := measure(cannedAnswers(200, m, kSites, 5))
	t.Logf("%d hits: %.1f allocs; %d hits: %.1f allocs", fewHits, fewAllocs, manyHits, manyAllocs)
	if fewHits != 10 || manyHits != 2000 {
		t.Fatalf("test set-up: %d and %d hits, want 10 and 2000", fewHits, manyHits)
	}
	if fewAllocs > 1 || manyAllocs > 1 {
		t.Fatalf("combine allocates more than its result: %.1f at %d hits, %.1f at %d",
			fewAllocs, fewHits, manyAllocs, manyHits)
	}
}
