package sdds

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/disperse"
	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wordindex"
)

// Fuzz targets: every decoder must be total — arbitrary bytes either
// decode or error, never panic — and a successful decode must re-encode
// to its input wherever the encoding is canonical. Past the decoders, a
// node must survive any request: FuzzNodeHandler.

// decodeRow is one message type the decoder fuzzers cover: seed inputs
// and the property checked on fuzzed bytes.
type decodeRow struct {
	name  string
	seeds [][]byte
	check func(t *testing.T, b []byte)
}

// roundTrips checks a canonical encoding: a successful decode re-encodes
// to its input.
func roundTrips[T message, P interface {
	*T
	decodeFrom(*reader)
}](t *testing.T, b []byte) {
	m, err := decode[T, P](b)
	if err != nil {
		return
	}
	if got := encode(m); !bytes.Equal(got, b) {
		t.Fatalf("%T re-encode mismatch: %x -> %x", m, b, got)
	}
}

var fuzzHeader = migrateHeader{mid: 3, kind: migrateSplit, file: FileIndex, from: 1, to: 3, level: 1}
var fuzzBatch = recordBatch{records: []kv{{key: 1, value: []byte("a")}, {key: 2, value: nil}}}

// fuzzGroups is a put_batch of put and delete groups over every file,
// each entry addressed to bucket 0 of fuzzNode.
var fuzzGroups = groupsReq(
	batchGroup{file: FileRecords, entries: []batchEntry{{key: 3, value: []byte("record-3")}}},
	batchGroup{file: FileIndex, del: true, entries: []batchEntry{{key: ComposeIndexKey(1, 0, 1, 2, 2)}}},
	batchGroup{file: FileWords, entries: []batchEntry{{key: 2, value: wordindex.Blob([]wordindex.Token{{9}})}}},
	batchGroup{file: FileRecords, del: true, entries: []batchEntry{{key: 1}, {key: 4}}},
)

// fuzzLastHop is a put group at the last hop a node accepts (maxHops-1
// forwards); fuzzPastHop, one forward more, is refused by the decoder.
var (
	fuzzLastHop = groupsReq(batchGroup{file: FileRecords, hops: maxHops - 1, entries: []batchEntry{{key: 5, value: []byte("record-5")}}})
	fuzzPastHop = groupsReq(batchGroup{file: FileRecords, hops: maxHops, entries: []batchEntry{{key: 5, value: []byte("record-5")}}})
)

// putBatchRoundTrips is roundTrips for the put_batch request, which the
// client streams through a batchWriter instead of an encodeTo.
func putBatchRoundTrips(t *testing.T, b []byte) {
	m, err := decode[putBatchReq](b)
	if err != nil {
		return
	}
	if got := groupsReq(m.groups...); !bytes.Equal(got, b) {
		t.Fatalf("put_batch re-encode mismatch: %x -> %x", b, got)
	}
}

// decodeRows covers every type decode serves, plus the node image.
var decodeRows = []decodeRow{
	{"putReq", [][]byte{{}, encode(putReq{keyHeader{file: FileIndex, addr: 5, hops: 1, key: 99}, []byte("v")})}, roundTrips[putReq]},
	{"keyHeader", [][]byte{{}, encode(keyHeader{file: FileRecords, addr: 3, key: 7})}, roundTrips[keyHeader]},
	{"keyResp", [][]byte{{}, encode(keyResp{existed: true, iamAddr: 2, iamLevel: 1, value: []byte("abc")})}, roundTrips[keyResp]},
	{"searchReq", [][]byte{{}, encode(searchReq{
		file: FileIndex, kSites: 2, slotBits: 2,
		series: []searchSeries{{a: 1, patterns: [][]disperse.Piece{{1, 2}, {3}}}},
	})}, roundTrips[searchReq]},
	{"searchResp", [][]byte{{}, encode(searchResp{hits: []rawHit{{rid: 1, j: 0, k: 1, a: 2, firstIndex: 0, pieceOffset: 3}}})}, roundTrips[searchResp]},
	// The absorb request is the one decoder of a record batch: the
	// coordinator relays the batch bytes of a prepare response without
	// looking at them, so this is where they are first checked.
	{"migrateAbsorbReq", [][]byte{
		{},
		encode(fuzzHeader),
		encode(migrateAbsorbReq{batch: fuzzBatch}),
		// A prepare response as the coordinator relays it.
		append(encode(fuzzHeader), encode(migratePrepareResp{status: migrateStatusOK, batch: fuzzBatch})[1:]...),
	}, roundTrips[migrateAbsorbReq]},
	{"nodeImage", [][]byte{{}, encode(nodeImage{files: []fileImage{{file: FileRecords, buckets: [][]byte{{1, 2, 3}}}}})}, func(t *testing.T, b []byte) {
		decodeNodeImage(b) //nolint:errcheck // totality is the property; zero padding makes the encoding non-canonical
	}},
	{"indexValue", [][]byte{{}, encode(indexValue{firstIndex: 2, pieces: []disperse.Piece{9, 8, 7}})}, roundTrips[indexValue]},
	{"migrateHeader", [][]byte{{}, encode(fuzzHeader)}, roundTrips[migrateHeader]},
	{"migrateFinishReq", [][]byte{{}, encode(migrateFinishReq{mid: 9})}, roundTrips[migrateFinishReq]},
	{"wordSearchReq", [][]byte{{}, encode(wordSearchReq{file: FileWords, token: bytes.Repeat([]byte{5}, wordindex.TokenSize)})}, roundTrips[wordSearchReq]},
	{"wordSearchResp", [][]byte{{}, encode(wordSearchResp{rids: []uint64{4, 1 << 50}})}, roundTrips[wordSearchResp]},
	{"statsResp", [][]byte{{}, encode(statsResp{buckets: []bucketStat{{addr: 1, level: 1, size: 3}}})}, roundTrips[statsResp]},
	{"putBatchReq", [][]byte{{}, fuzzNodeLoad[2], fuzzGroups, fuzzLastHop, fuzzPastHop}, putBatchRoundTrips},
	{"recoveryStateResp", [][]byte{{}, encode(recoveryStateResp{mode: recoveryRecovered, seq: 3})}, roundTrips[recoveryStateResp]},
}

// FuzzDecode fuzzes every row at once: the first byte selects the row.
func FuzzDecode(f *testing.F) {
	for i, row := range decodeRows {
		for _, s := range row.seeds {
			f.Add(append([]byte{byte(i)}, s...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		decodeRows[int(b[0])%len(decodeRows)].check(t, b[1:])
	})
}

// fuzzDecodeRow fuzzes one row on its own.
func fuzzDecodeRow(f *testing.F, name string) {
	for _, row := range decodeRows {
		if row.name == name {
			for _, s := range row.seeds {
				f.Add(s)
			}
			f.Fuzz(row.check)
			return
		}
	}
	f.Fatalf("no decode row %q", name)
}

// The per-type targets each fuzz one row of FuzzDecode's table.
func FuzzDecodePutReq(f *testing.F)           { fuzzDecodeRow(f, "putReq") }
func FuzzDecodeKeyReq(f *testing.F)           { fuzzDecodeRow(f, "keyHeader") }
func FuzzDecodeValueResp(f *testing.F)        { fuzzDecodeRow(f, "keyResp") }
func FuzzDecodeSearchReq(f *testing.F)        { fuzzDecodeRow(f, "searchReq") }
func FuzzDecodeSearchResp(f *testing.F)       { fuzzDecodeRow(f, "searchResp") }
func FuzzDecodeMigrateAbsorbReq(f *testing.F) { fuzzDecodeRow(f, "migrateAbsorbReq") }
func FuzzDecodeNodeImage(f *testing.F)        { fuzzDecodeRow(f, "nodeImage") }
func FuzzDecodeIndexValue(f *testing.F)       { fuzzDecodeRow(f, "indexValue") }

// fuzzNodeLoad is the put_batches fuzzNode loads: records, two index
// piece streams (both starting with piece 1) and a word blob.
var fuzzNodeLoad = [][]byte{
	batchReq(FileRecords, batchEntry{key: 1, value: []byte("record-1")}),
	batchReq(FileRecords, batchEntry{key: 2, value: []byte("record-2")}),
	batchReq(FileIndex,
		batchEntry{key: ComposeIndexKey(1, 0, 0, 2, 2), value: encode(indexValue{pieces: []disperse.Piece{1, 2, 3}})},
		batchEntry{key: ComposeIndexKey(1, 0, 1, 2, 2), value: encode(indexValue{pieces: []disperse.Piece{1, 5}})}),
	batchReq(FileWords, batchEntry{key: 1, value: wordindex.Blob([]wordindex.Token{{7}})}),
}

// fuzzSearch matches both loaded index streams.
var fuzzSearch = encode(searchReq{file: FileIndex, kSites: 2, slotBits: 2,
	series: []searchSeries{{patterns: [][]disperse.Piece{{1}, {1}}}}})

// fuzzNode is a single-node placement's node over a MemFS-backed store,
// loaded with fuzzNodeLoad.
func fuzzNode(t testing.TB) *Node {
	t.Helper()
	place, err := NewPlacement([]transport.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, nil, place)
	st, err := wal.Open(wal.NewMemFS(), "node", wal.Options{CheckpointBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for i, req := range fuzzNodeLoad {
		if _, err := n.Handler()(context.Background(), opPutBatch, req); err != nil {
			t.Fatalf("loading put_batch %d: %v", i, err)
		}
	}
	return n
}

// probeNode sends a get and a put to every bucket the node holds, then a
// search: requests that reach whatever state an earlier request left.
// Their errors do not matter; a panic does.
func probeNode(n *Node) {
	type target struct {
		file FileID
		addr uint64
	}
	var targets []target
	n.mu.RLock()
	for id, f := range n.files {
		for addr := range f.buckets {
			targets = append(targets, target{id, addr})
		}
	}
	n.mu.RUnlock()
	ctx, h := context.Background(), n.Handler()
	for _, tg := range targets {
		h(ctx, opGet, encode(keyHeader{file: tg.file, addr: tg.addr, key: tg.addr}))                           //nolint:errcheck
		h(ctx, opPutBatch, batchReq(tg.file, batchEntry{addr: tg.addr, key: tg.addr, value: []byte("probe")})) //nolint:errcheck
	}
	h(ctx, opSearch, fuzzSearch) //nolint:errcheck
}

// The two requests that crashed a node before decodeFrom checked field
// values (committed as FuzzNodeHandler seeds too): a search with zero
// sites divided by zero decomposing index keys; a split absorb at level
// 63 created a level-64 bucket on which every later request panicked in
// LH* addressing (key mod 2^64), and replay re-created it after restart.
var (
	crashSearchZeroSites = encode(searchReq{file: FileIndex, kSites: 0, slotBits: 2,
		series: []searchSeries{{patterns: [][]disperse.Piece{{1}}}}})
	crashAbsorbLevel63 = encode(migrateAbsorbReq{migrateHeader: migrateHeader{
		mid: 1, kind: migrateSplit, file: FileRecords, from: 0, to: 1 << 63, level: 63}})
)

// TestNodeRejectsUnservableRequests: both crashers are refused before
// anything is journaled, and the node keeps serving; a checkpoint
// holding a level-64 bucket (the same poison by another door) refuses
// to load.
func TestNodeRejectsUnservableRequests(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		op      uint8
		payload []byte
	}{
		{"search with zero sites", opSearch, crashSearchZeroSites},
		{"split absorb at level 63", opMigrateAbsorb, crashAbsorbLevel63},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := fuzzNode(t)
			seq := n.store.Seq()
			if _, err := n.Handler()(ctx, c.op, c.payload); err == nil {
				t.Fatal("node accepted the request")
			}
			if got := n.store.Seq(); got != seq {
				t.Fatalf("rejected request journaled %d frames", got-seq)
			}
			probeNode(n)
			raw, err := n.Handler()(ctx, opGet, encode(keyHeader{file: FileRecords, key: 1}))
			if err != nil {
				t.Fatal(err)
			}
			if v, err := decode[keyResp](raw); err != nil || !v.existed || string(v.value) != "record-1" {
				t.Fatalf("get after the rejection = %+v, %v", v, err)
			}
		})
	}
	t.Run("restore of a level-64 bucket", func(t *testing.T) {
		place, err := NewPlacement([]transport.NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		poison := encode(nodeImage{files: []fileImage{
			{file: FileRecords, buckets: [][]byte{lhstar.NewBucket(1, 64).Snapshot()}}}})
		if err := attachCheckpoint(t, NewNode(0, nil, place), poison); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("checkpoint holding a level-64 bucket: AttachStore = %v, want wal.ErrCorrupt", err)
		}
	})
}

// FuzzNodeHandler sends one arbitrary request to a loaded durable node,
// then probes every bucket: no request may crash the node, or leave state
// that crashes a later one.
func FuzzNodeHandler(f *testing.F) {
	f.Add(opPutBatch, batchReq(FileRecords, batchEntry{key: 3, value: []byte("v")}))
	f.Add(opGet, encode(keyHeader{file: FileRecords, key: 1}))
	f.Add(opPutBatch, groupsReq(batchGroup{file: FileRecords, del: true, entries: []batchEntry{{key: 1}}}))
	// Strays a peer forwarded: at the last hop a node accepts, and past it.
	f.Add(opPutBatch, fuzzLastHop)
	f.Add(opPutBatch, fuzzPastHop)
	// Put and delete are journal records only; an older client sends them.
	f.Add(opPut, encode(putReq{keyHeader{file: FileRecords, key: 3}, []byte("v")}))
	f.Add(opDelete, encode(keyHeader{file: FileRecords, key: 1}))
	f.Add(opSearch, fuzzSearch)
	f.Add(opStats, []byte{byte(FileIndex)})
	f.Add(opWordSearch, encode(wordSearchReq{file: FileWords, token: make([]byte, wordindex.TokenSize)}))
	// The retired whole-node snapshot and restore codes, as a client of
	// an older version would send them.
	f.Add(uint8(12), []byte{})
	f.Add(uint8(13), encode(nodeImage{files: []fileImage{{file: FileRecords, buckets: [][]byte{lhstar.NewBucket(0, 0).Snapshot()}}}}))
	f.Add(opPutBatch, fuzzNodeLoad[2])
	f.Add(opPutBatch, fuzzGroups)
	f.Add(opPing, []byte{})
	f.Add(opRecoveryState, []byte{})
	f.Add(opMigratePrepare, encode(migrateHeader{mid: 1, kind: migrateSplit, file: FileRecords, from: 0, to: 1, level: 0}))
	f.Add(opMigrateAbsorb, encode(migrateAbsorbReq{migrateHeader: migrateHeader{mid: 2, kind: migrateSplit, file: FileIndex, from: 0, to: 1, level: 0}, batch: fuzzBatch}))
	f.Add(opMigrateCommit, encode(migrateFinishReq{mid: 1}))
	f.Add(opMigrateAbort, encode(migrateFinishReq{mid: 2}))
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		n := fuzzNode(t)
		n.Handler()(context.Background(), op, payload) //nolint:errcheck // only a panic fails
		probeNode(n)
	})
}

// Property tests: randomized structured round-trips (the other
// direction from the fuzzers, which start at bytes).

func randBytes(rng *rand.Rand, maxLen int) []byte {
	b := make([]byte, rng.Intn(maxLen))
	rng.Read(b)
	return b
}

func TestCodecRoundTripProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20060410))
	for i := 0; i < 500; i++ {
		pr := putReq{keyHeader{
			file: FileID(rng.Intn(3)),
			addr: rng.Uint64(),
			hops: uint8(rng.Intn(4)),
			key:  rng.Uint64(),
		}, randBytes(rng, 64)}
		got, err := decode[putReq](encode(pr))
		if err != nil {
			t.Fatalf("putReq: %v", err)
		}
		if got.keyHeader != pr.keyHeader || !bytes.Equal(got.value, pr.value) {
			t.Fatalf("putReq round trip: %+v -> %+v", pr, got)
		}

		kr := keyResp{existed: rng.Intn(2) == 0, moved: rng.Intn(2) == 0, iamAddr: rng.Uint64(), iamLevel: uint8(rng.Intn(64)), value: randBytes(rng, 32)}
		gk, err := decode[keyResp](encode(kr))
		if err != nil {
			t.Fatalf("keyResp: %v", err)
		}
		if gk.existed != kr.existed || gk.moved != kr.moved || gk.iamAddr != kr.iamAddr ||
			gk.iamLevel != kr.iamLevel || !bytes.Equal(gk.value, kr.value) {
			t.Fatalf("keyResp round trip: %+v -> %+v", kr, gk)
		}

		batch := recordBatch{}
		for j := rng.Intn(8); j > 0; j-- {
			batch.records = append(batch.records, kv{key: rng.Uint64(), value: randBytes(rng, 32)})
		}
		absorb, err := decode[migrateAbsorbReq](encode(migrateAbsorbReq{batch: batch}))
		if err != nil {
			t.Fatalf("recordBatch: %v", err)
		}
		gb := absorb.batch
		if len(gb.records) != len(batch.records) {
			t.Fatalf("recordBatch count: %d -> %d", len(batch.records), len(gb.records))
		}
		for j := range gb.records {
			if gb.records[j].key != batch.records[j].key ||
				!bytes.Equal(gb.records[j].value, batch.records[j].value) {
				t.Fatalf("recordBatch record %d mismatch", j)
			}
		}

		img := nodeImage{}
		for fi := rng.Intn(3); fi > 0; fi-- {
			f := fileImage{file: FileID(rng.Intn(3))}
			for bi := rng.Intn(4); bi > 0; bi-- {
				f.buckets = append(f.buckets, randBytes(rng, 48))
			}
			img.files = append(img.files, f)
		}
		enc := encode(img)
		// Zero padding (left by restores from parity shards in earlier
		// versions) must be tolerated.
		enc = append(enc, make([]byte, rng.Intn(7))...)
		gi, err := decodeNodeImage(enc)
		if err != nil {
			t.Fatalf("nodeImage: %v", err)
		}
		if len(gi.files) != len(img.files) {
			t.Fatalf("nodeImage files: %d -> %d", len(img.files), len(gi.files))
		}
		for j := range gi.files {
			if gi.files[j].file != img.files[j].file || len(gi.files[j].buckets) != len(img.files[j].buckets) {
				t.Fatalf("nodeImage file %d mismatch", j)
			}
			for b := range gi.files[j].buckets {
				if !bytes.Equal(gi.files[j].buckets[b], img.files[j].buckets[b]) {
					t.Fatalf("nodeImage bucket bytes mismatch")
				}
			}
		}
	}
}

func TestDecodeNodeImageRejectsNonZeroTrailer(t *testing.T) {
	img := nodeImage{files: []fileImage{{file: FileRecords, buckets: [][]byte{{1}}}}}
	enc := append(encode(img), 0, 0, 5)
	if _, err := decodeNodeImage(enc); err == nil {
		t.Fatal("non-zero trailer accepted")
	}
}
