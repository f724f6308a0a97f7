package sdds

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/lhstar"
	"repro/internal/obs"
	"repro/internal/phonebook"
	"repro/internal/transport"
)

// --- Node-side search: posting index vs linear scan ---
//
// One 20k-record corpus per mode, built once and shared across
// benchmark iterations. The query is a selective 9-symbol substring of
// a known record, so the measured work is the node-side lookup, not
// result marshalling.

type searchBench struct {
	cluster *Cluster
	pl      *core.Pipeline
	query   *core.Query
}

const benchSearchRecords = 20000

var (
	searchBenchOnce sync.Once
	searchBenches   map[string]*searchBench
)

func buildSearchBench(b *testing.B, linear bool) *searchBench {
	rng := rand.New(rand.NewSource(99))
	mem := transport.NewMemory()
	ids := []transport.NodeID{0, 1, 2, 3}
	place, err := NewPlacement(ids)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids {
		node := NewNode(id, mem, place)
		if linear {
			node.DisablePostingIndex()
		}
		mem.Register(id, node.Handler())
	}
	c := NewCluster(mem, place)

	pl := benchPipeline(b, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	var needle []byte
	for rid := uint64(1); rid <= benchSearchRecords; rid++ {
		rc := make([]byte, 24)
		for i := range rc {
			rc[i] = byte('A' + rng.Intn(26))
		}
		if rid == benchSearchRecords/2 {
			needle = append([]byte(nil), rc[4:13]...)
		}
		recs, err := pl.BuildIndex(rid, rc)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			b.Fatal(err)
		}
	}
	query, err := pl.BuildQuery(needle, false)
	if err != nil {
		b.Fatal(err)
	}
	return &searchBench{cluster: c, pl: pl, query: query}
}

func getSearchBench(b *testing.B, mode string) *searchBench {
	searchBenchOnce.Do(func() {
		searchBenches = map[string]*searchBench{
			"posting": buildSearchBench(b, false),
			"linear":  buildSearchBench(b, true),
		}
	})
	return searchBenches[mode]
}

func benchPipeline(tb testing.TB, s, m, k int) *core.Pipeline {
	tb.Helper()
	pl, err := core.NewPipeline(core.Params{
		Chunk:      chunk.Params{S: s, M: m},
		DisperseK:  k,
		MatrixKind: disperse.MatrixRandom,
		Key:        cipherx.KeyFromPassphrase("sdds-test"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

func benchmarkNodeSearch(b *testing.B, mode string) {
	sb := getSearchBench(b, mode)
	ctx := context.Background()
	lat := obs.NewHistogram() // per-iteration latency → p50/p99 metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		hits, err := sb.cluster.Search(ctx, FileIndex, sb.pl, sb.query, core.VerifyAny)
		lat.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 {
			b.Fatal("query lost its record")
		}
	}
	b.StopTimer()
	s := lat.Snapshot()
	b.ReportMetric(float64(s.P50), "p50-ns")
	b.ReportMetric(float64(s.P99), "p99-ns")
}

func BenchmarkNodeSearch(b *testing.B) {
	b.Run("linear", func(b *testing.B) { benchmarkNodeSearch(b, "linear") })
	b.Run("posting", func(b *testing.B) { benchmarkNodeSearch(b, "posting") })
}

// --- Batched vs sequential InsertIndexed ---

// countingTransport counts client-issued RPCs; node-to-node forwards
// bypass it (nodes hold the raw memory transport), so the count is
// exactly the client's message cost.
type countingTransport struct {
	transport.Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	c.sends.Add(1)
	return c.Transport.Send(ctx, node, op, payload)
}

func insertBenchCluster(tb testing.TB, nodes int) (*Cluster, *countingTransport) {
	tb.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, nodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids {
		node := NewNode(id, mem, place)
		mem.Register(id, node.Handler())
	}
	ct := &countingTransport{Transport: mem}
	return NewCluster(ct, place), ct
}

func benchmarkInsertIndexed(b *testing.B, batched bool) {
	rng := rand.New(rand.NewSource(7))
	pl := benchPipeline(b, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	const records = 200
	recSets := make([][]core.IndexRecord, records)
	for i := range recSets {
		rc := make([]byte, 24)
		for j := range rc {
			rc[j] = byte('A' + rng.Intn(26))
		}
		recs, err := pl.BuildIndex(uint64(i+1), rc)
		if err != nil {
			b.Fatal(err)
		}
		recSets[i] = recs
	}

	b.ReportAllocs()
	b.ResetTimer()
	var rpcs, inserted int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, ct, cleanup := insertTCPBenchCluster(b, 4)
		b.StartTimer()
		for _, recs := range recSets {
			var err error
			if batched {
				err = c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits)
			} else {
				err = insertIndexedSequential(ctx, c, FileIndex, recs, pl.K(), slotBits)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		rpcs += ct.sends.Load()
		inserted += records
		b.StopTimer()
		cleanup()
		b.StartTimer()
	}
	b.ReportMetric(float64(rpcs)/float64(inserted), "rpcs/record")
}

// BenchmarkInsertIndexed compares the two insert strategies over the
// fabric the batching work targets: real loopback TCP through the
// pooled multiplexed v2 transport. Sequential pays one round-trip per
// index record; batched scatters one multiplexed frame per destination
// node, so the per-RPC saving shows up directly as wall clock.
func BenchmarkInsertIndexed(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchmarkInsertIndexed(b, false) })
	b.Run("batched", func(b *testing.B) { benchmarkInsertIndexed(b, true) })
}

// TestBatchedInsertRPCBound pins the batching contract: one insert of a
// multi-piece record costs at most one RPC per destination node (no
// splits pending).
func TestBatchedInsertRPCBound(t *testing.T) {
	pl := testPipeline(t, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()
	c, ct := insertBenchCluster(t, 4)
	c.SetMaxLoad(FileIndex, 1000) // no splits: isolate the batch cost

	recs, err := pl.BuildIndex(1, []byte("AN ENCRYPTED CONTENT SEARCHABLE SCALABLE STRUCTURE"))
	if err != nil {
		t.Fatal(err)
	}
	var pieces int
	for _, r := range recs {
		pieces += len(r.Streams)
	}
	before := ct.sends.Load()
	if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
		t.Fatal(err)
	}
	rpcs := ct.sends.Load() - before
	if nodes := int64(len(c.place.Nodes())); rpcs > nodes {
		t.Fatalf("batched insert used %d RPCs for %d nodes", rpcs, nodes)
	}
	if rpcs >= int64(pieces) {
		t.Fatalf("batching saved nothing: %d RPCs for %d pieces", rpcs, pieces)
	}
}

// --- Posting-index maintenance: flat vs legacy, single vs batched ---
//
// One iteration indexes idxBenchEntries pre-encoded values (zipfian
// piece popularity), so ns/op is directly comparable across the
// variants; "ns/entry" is also reported. "single" uses the per-entry
// put path on fresh keys — the case the old index paid a full
// indexDelete for; "legacy" is the pre-flat two-level map index on the
// same stream (its put IS the old indexPut, redundant delete included),
// so single-vs-legacy is the fix's delta. "batched" feeds all entries
// through putBatch as handlePutBatch does; "overwrite" re-indexes
// existing keys, exercising tombstoning and compaction at steady state.

const idxBenchEntries = 1000

func idxBenchValues() []kv {
	rng := rand.New(rand.NewSource(77))
	z := rand.NewZipf(rng, 1.2, 1, 511)
	ents := make([]kv, idxBenchEntries)
	for i := range ents {
		n := 4 + rng.Intn(10)
		ps := make([]disperse.Piece, n)
		for j := range ps {
			ps[j] = disperse.Piece(z.Uint64())
		}
		ents[i] = kv{
			key:   uint64(i + 1),
			value: encode(indexValue{firstIndex: uint32(i % 4), pieces: ps}),
		}
	}
	return ents
}

func BenchmarkIndexPut(b *testing.B) {
	ents := idxBenchValues()
	perEntry := func(b *testing.B, total time.Duration) {
		b.Helper()
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*idxBenchEntries), "ns/entry")
	}
	b.Run("single", func(b *testing.B) {
		x := newFlatIndex(nil)
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			x.reset()
			for _, e := range ents {
				x.put(e.key, e.value)
			}
		}
		perEntry(b, time.Since(start))
	})
	b.Run("batched", func(b *testing.B) {
		x := newFlatIndex(nil)
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			x.reset()
			x.putBatch(ents)
		}
		perEntry(b, time.Since(start))
	})
	b.Run("overwrite", func(b *testing.B) {
		x := newFlatIndex(nil)
		x.putBatch(ents) // steady state: every put below overwrites
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, e := range ents {
				x.put(e.key, e.value)
			}
		}
		perEntry(b, time.Since(start))
	})
	b.Run("legacy", func(b *testing.B) {
		x := newLegacyMapIndex()
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			x.reset()
			for _, e := range ents {
				x.put(e.key, e.value)
			}
		}
		perEntry(b, time.Since(start))
	})
}

// --- Split commit: the index half of an LH* split ---
//
// A split runs while every writer waits: the target absorbs the moved
// half and the source commits, tombstoning the moved entries' postings
// in lists it shares with everything else the node indexes. The source
// node is preloaded with 32 768 phonebook index entries in 64 level-6
// buckets of 512 (the end-to-end benchmark's bucket capacity), so each
// split moves 256. The absorb and both commits are timed; the split is
// then undone untimed, so every iteration starts from the same preload.

func BenchmarkSplitCommit(b *testing.B) {
	const level, records = 6, 8192
	pl := benchPipeline(b, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	halves := make([][]kv, 1<<level)
	for i, e := range phonebook.Generate(records, 5) {
		rid := uint64(i)
		recs, err := pl.BuildIndex(rid, []byte(phonebook.FormatRecord(e)))
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			for k, stream := range rec.Streams {
				key := ComposeIndexKey(rid, rec.J, k, pl.K(), slotBits)
				val := encode(indexValue{firstIndex: uint32(rec.FirstIndex), pieces: stream})
				halves[key%(1<<level)] = append(halves[key%(1<<level)], kv{key: key, value: val})
			}
		}
	}
	fullBucket := func(a uint64) *lhstar.Bucket {
		bk := lhstar.NewBucket(a, level)
		for _, r := range halves[a] {
			bk.Put(r.key, r.value)
		}
		return bk
	}
	place, err := NewPlacement([]transport.NodeID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	src, dst := NewNode(0, nil, place), NewNode(1, nil, place)
	sf, df := src.getFile(FileIndex), dst.getFile(FileIndex)
	var all []kv
	for a := range halves {
		sf.buckets[uint64(a)] = fullBucket(uint64(a))
		all = append(all, halves[a]...)
	}
	sf.indexPutBatch(all)

	ctx := context.Background()
	send := func(n *Node, op uint8, payload []byte) []byte {
		resp, err := n.Handler()(ctx, op, payload)
		if err != nil {
			b.Fatal(err)
		}
		return resp
	}
	moved := 0
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		from := uint64(i % (1 << level))
		hdr := migrateHeader{mid: uint64(i + 1), kind: migrateSplit, file: FileIndex,
			from: from, to: from + 1<<level, level: level}
		// The prepare response relays into the absorb request as the
		// coordinator sends it: the header, then the status-less batch.
		prep := send(src, opMigratePrepare, encode(hdr))
		batch, err := decode[recordBatch](prep[1:])
		if err != nil {
			b.Fatal(err)
		}
		absorb := append(encode(hdr), prep[1:]...)
		commit := encode(migrateFinishReq{mid: hdr.mid})
		b.StartTimer()
		send(dst, opMigrateAbsorb, absorb)
		send(src, opMigrateCommit, commit)
		send(dst, opMigrateCommit, commit)
		b.StopTimer()
		moved += len(batch.records)
		// Undo: the source gets its whole bucket back, the target drops
		// the half it absorbed.
		sf.buckets[from] = fullBucket(from)
		sf.indexPutBatch(batch.records)
		delete(df.buckets, hdr.to)
		for _, r := range batch.records {
			df.indexDelete(r.key)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/moved-entry")
}

// --- Client combine: encoded answers to RIDs ---
//
// The client's share of a search after the wire, with no transport or
// node in the loop: each answer's framing checked, every hit voted
// straight from its bytes, and the VerifyAny accept. Two sizes, the
// search workload's two query classes: about 90 and about 400 matching
// records, each matched at one position by both sites (M = 2, K = 2),
// with scattered RIDs.

func BenchmarkSearchCombine(b *testing.B) {
	const m, kSites = 2, 2
	geom := chunk.Params{S: 4, M: m}
	for _, rids := range []int{90, 400} {
		payloads := cannedAnswers(rids, m, kSites, 1)
		b.Run(fmt.Sprintf("rids=%d", rids), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := combineHits(payloads, m, kSites, 1, core.VerifyAny, geom)
				if err != nil || len(got) != rids {
					b.Fatalf("combine: %d RIDs, %v", len(got), err)
				}
			}
		})
	}
}

// --- Placement.Nodes: cached immutable slice, zero allocations ---

func TestPlacementNodesZeroAlloc(t *testing.T) {
	place, err := NewPlacement([]transport.NodeID{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if len(place.Nodes()) != 5 {
			t.Fatal("wrong node count")
		}
	})
	if allocs != 0 {
		t.Fatalf("Placement.Nodes allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkPlacementNodes(b *testing.B) {
	place, err := NewPlacement([]transport.NodeID{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(place.Nodes()) == 0 {
			b.Fatal("empty placement")
		}
	}
}
