package sdds

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/transport"
	"repro/internal/wal"
)

// decodeErr decodes b as a T and reports only the error.
func decodeErr[T any, P interface {
	*T
	decodeFrom(*reader)
}](b []byte) error {
	_, err := decode[T, P](b)
	return err
}

// decodeFrom decodes a search answer into rawHits — the reference for
// combineHits, which reads the same bytes in place, and for the codec
// tests.
func (m *searchResp) decodeFrom(r *reader) {
	n := r.bound(r.u32(), hitWireSize)
	if n > 0 {
		m.hits = make([]rawHit, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.hits = append(m.hits, rawHit{
			rid:         r.u64(),
			j:           r.u8(),
			k:           r.u8(),
			a:           r.u16(),
			firstIndex:  r.u32(),
			pieceOffset: r.u32(),
		})
	}
}

// batchReq builds a one-group put_batch request of puts with the writer
// the client's write round uses.
func batchReq(file FileID, entries ...batchEntry) []byte {
	return groupsReq(batchGroup{file: file, entries: entries})
}

// groupsReq builds a put_batch request of any groups.
func groupsReq(groups ...batchGroup) []byte {
	bw := batchWriter{w: &writer{}}
	for gi, g := range groups {
		for _, e := range g.entries {
			// A delete entry's value is nil: nothing follows its key.
			bw.entry(gi, g.file, g.del, g.hops, e.addr, e.key).raw(e.value)
		}
	}
	return bw.finish()
}

// TestPutReqRoundTrip: the journal record of a put decodes to what was
// encoded.
func TestPutReqRoundTrip(t *testing.T) {
	prop := func(file uint8, addr uint64, hops uint8, key uint64, value []byte) bool {
		m := putReq{keyHeader{file: FileID(file), addr: addr, hops: hops, key: key}, value}
		got, err := decode[putReq](encode(m))
		return err == nil && got.keyHeader == m.keyHeader && bytes.Equal(got.value, m.value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPutRespRoundTrip: a put (or put_batch entry) is answered by a
// keyResp without a value.
func TestPutRespRoundTrip(t *testing.T) {
	prop := func(existed, moved bool, addr uint64, level uint8) bool {
		m := keyResp{existed: existed, moved: moved, iamAddr: addr, iamLevel: level}
		got, err := decode[keyResp](encode(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyReqValueRespRoundTrip: a get (and a delete's journal record)
// is a bare keyHeader, answered by a keyResp carrying the value.
func TestKeyReqValueRespRoundTrip(t *testing.T) {
	prop := func(file uint8, addr uint64, hops uint8, key uint64, found bool, value []byte) bool {
		kr := keyHeader{file: FileID(file), addr: addr, hops: hops, key: key}
		gk, err := decode[keyHeader](encode(kr))
		if err != nil || gk != kr {
			return false
		}
		vr := keyResp{existed: found, iamAddr: addr, iamLevel: hops, value: value}
		gv, err := decode[keyResp](encode(vr))
		return err == nil && gv.existed == vr.existed && gv.iamAddr == vr.iamAddr &&
			gv.iamLevel == vr.iamLevel && bytes.Equal(gv.value, vr.value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIndexValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m := indexValue{firstIndex: rng.Uint32()}
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			m.pieces = append(m.pieces, disperse.Piece(rng.Intn(1<<16)))
		}
		got, err := decode[indexValue](encode(m))
		if err != nil {
			t.Fatal(err)
		}
		if got.firstIndex != m.firstIndex || len(got.pieces) != len(m.pieces) {
			t.Fatal("header mismatch")
		}
		for i := range m.pieces {
			if got.pieces[i] != m.pieces[i] {
				t.Fatal("piece mismatch")
			}
		}
	}
}

func TestSearchReqRespRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		req := searchReq{
			file:     FileID(rng.Intn(3)),
			kSites:   uint8(1 + rng.Intn(8)),
			slotBits: uint8(rng.Intn(7)),
		}
		for s := 0; s < rng.Intn(4); s++ {
			ser := searchSeries{a: uint16(rng.Intn(8))}
			for p := 0; p < int(req.kSites); p++ {
				var pat []disperse.Piece
				for c := 0; c < 1+rng.Intn(5); c++ {
					pat = append(pat, disperse.Piece(rng.Intn(1<<16)))
				}
				ser.patterns = append(ser.patterns, pat)
			}
			req.series = append(req.series, ser)
		}
		got, err := decode[searchReq](encode(req))
		if err != nil {
			t.Fatal(err)
		}
		if got.file != req.file || got.kSites != req.kSites || got.slotBits != req.slotBits ||
			len(got.series) != len(req.series) {
			t.Fatal("header mismatch")
		}
		for i := range req.series {
			if got.series[i].a != req.series[i].a ||
				len(got.series[i].patterns) != len(req.series[i].patterns) {
				t.Fatal("series mismatch")
			}
		}

		resp := searchResp{}
		for h := 0; h < rng.Intn(10); h++ {
			resp.hits = append(resp.hits, rawHit{
				rid:         rng.Uint64(),
				j:           uint8(rng.Intn(8)),
				k:           uint8(rng.Intn(8)),
				a:           uint16(rng.Intn(8)),
				firstIndex:  rng.Uint32(),
				pieceOffset: rng.Uint32(),
			})
		}
		gotResp, err := decode[searchResp](encode(resp))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotResp.hits) != len(resp.hits) {
			t.Fatal("hit count mismatch")
		}
		for i := range resp.hits {
			if gotResp.hits[i] != resp.hits[i] {
				t.Fatal("hit mismatch")
			}
		}
	}
}

func TestRecordBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var m recordBatch
		for i := 0; i < rng.Intn(10); i++ {
			v := make([]byte, rng.Intn(30))
			rng.Read(v)
			m.records = append(m.records, kv{key: rng.Uint64(), value: v})
		}
		// A batch only travels inside a migration message, and the absorb
		// request is the one that is decoded.
		req, err := decode[migrateAbsorbReq](encode(migrateAbsorbReq{batch: m}))
		if err != nil {
			t.Fatal(err)
		}
		got := req.batch
		if len(got.records) != len(m.records) {
			t.Fatal("count mismatch")
		}
		for i := range m.records {
			if got.records[i].key != m.records[i].key ||
				!bytes.Equal(got.records[i].value, m.records[i].value) {
				t.Fatal("record mismatch")
			}
		}
	}
}

func TestControlMessageRoundTrips(t *testing.T) {
	hdr := migrateHeader{mid: 7, kind: migrateMerge, file: 1, from: 9, to: 1, level: 3}
	batch := recordBatch{records: []kv{{key: 5, value: []byte("x")}}}
	if got, err := decode[migrateHeader](encode(hdr)); err != nil || got != hdr {
		t.Errorf("migratePrepare: %+v %v", got, err)
	}
	ab := migrateAbsorbReq{migrateHeader: hdr, batch: batch}
	if got, err := decode[migrateAbsorbReq](encode(ab)); err != nil || !reflect.DeepEqual(got, ab) {
		t.Errorf("migrateAbsorb: %+v %v", got, err)
	}
	// A prepare response is a status byte and the same batch encoding the
	// absorb request carries behind its header: that identity is what
	// lets the coordinator relay the batch without decoding it.
	pr := encode(migratePrepareResp{status: migrateStatusOK, batch: batch})
	if relayed := append(encode(hdr), pr[1:]...); pr[0] != migrateStatusOK || !bytes.Equal(relayed, encode(ab)) {
		t.Errorf("prepare response %x does not relay into absorb request %x", pr, encode(ab))
	}
	fin := migrateFinishReq{mid: 7}
	if got, err := decode[migrateFinishReq](encode(fin)); err != nil || got != fin {
		t.Errorf("migrateFinish: %+v %v", got, err)
	}
	ws := wordSearchReq{file: FileWords, token: bytes.Repeat([]byte{7}, 16)}
	if got, err := decode[wordSearchReq](encode(ws)); err != nil || !reflect.DeepEqual(got, ws) {
		t.Errorf("wordSearch: %+v %v", got, err)
	}
	wr := wordSearchResp{rids: []uint64{1, 99, 1 << 60}}
	if got, err := decode[wordSearchResp](encode(wr)); err != nil || !reflect.DeepEqual(got, wr) {
		t.Errorf("wordSearchResp: %+v %v", got, err)
	}
	st := statsResp{buckets: []bucketStat{{addr: 3, level: 2, size: 40}, {addr: 7, level: 3, size: 1}}}
	if got, err := decode[statsResp](encode(st)); err != nil || !reflect.DeepEqual(got, st) {
		t.Errorf("statsResp: %+v %v", got, err)
	}
	rs := recoveryStateResp{mode: recoveryRecovered, seq: 12}
	if got, err := decode[recoveryStateResp](encode(rs)); err != nil || got != rs {
		t.Errorf("recoveryStateResp: %+v %v", got, err)
	}
	// put_batch: the writer's groups decode back out of the node's
	// decoder, and the node's response out of the client's iterator.
	groups := []batchGroup{
		{file: FileIndex, entries: []batchEntry{{addr: 1, key: 2, value: []byte("ab")}, {addr: 3, key: 4, value: []byte{}}}},
		{file: FileRecords, del: true, hops: 1, entries: []batchEntry{{addr: 5, key: 6}}},
		{file: FileWords, hops: maxHops - 1, entries: []batchEntry{{addr: 7, key: 8, value: []byte("w")}}},
	}
	req, err := decode[putBatchReq](groupsReq(groups...))
	if err != nil || req.n != 4 || req.valBytes != 3 || !reflect.DeepEqual(req.groups, groups) {
		t.Fatalf("put_batch request: %+v %v", req, err)
	}
	// The answer is written as the node resolves the request; the second
	// entry's is reserved and set afterwards, as a stray's is.
	resps := []keyResp{{existed: true, iamAddr: 5, iamLevel: 2}, {moved: true, iamAddr: 6, iamLevel: 3}, {existed: true}, {}}
	ans := writer{b: make([]byte, 0, 4*len(req.groups)+answerSize*req.n)}
	var reserved int
	for gi, r := 0, resps; gi < len(req.groups); gi++ {
		ans.u32(uint32(len(req.groups[gi].entries)))
		for range req.groups[gi].entries {
			if len(r) == 3 {
				reserved = len(ans.b)
				ans.b = ans.b[:reserved+answerSize]
			} else {
				r[0].encodeTo(&ans)
			}
			r = r[1:]
		}
	}
	setAnswer(ans.b[reserved:], resps[1])
	if len(ans.b) != cap(ans.b) {
		t.Errorf("put_batch answer is %d bytes, sized for %d", len(ans.b), cap(ans.b))
	}
	rd := reader{b: ans.b}
	next := resps
	for _, g := range groups {
		if n := rd.u32(); n != uint32(len(g.entries)) {
			t.Fatalf("put_batch response group of %d entries, want %d", n, len(g.entries))
		}
		for range g.entries {
			var got keyResp
			if got.decodeFrom(&rd); !reflect.DeepEqual(got, next[0]) {
				t.Errorf("put_batch response entry %+v, want %+v", got, next[0])
			}
			next = next[1:]
		}
	}
	if err := rd.done(); err != nil {
		t.Error(err)
	}
}

// TestPutBatchDecodeRejections: a put_batch with no group, a group of an
// unknown file, a group forwarded maxHops times, an empty group or bytes
// past its last group is refused by the decoder, and a node handed one
// journals nothing and keeps serving.
func TestPutBatchDecodeRejections(t *testing.T) {
	valid := groupsReq(batchGroup{file: FileRecords, entries: []batchEntry{{key: 3, value: []byte("v")}}})
	for name, payload := range map[string][]byte{
		"no group":              {},
		"unknown file":          groupsReq(batchGroup{file: FileWords + 1, entries: []batchEntry{{key: 3, value: []byte("v")}}}),
		"unknown file, deletes": groupsReq(batchGroup{file: 0x7f, del: true, entries: []batchEntry{{key: 3}}}),
		"past the hop bound":    groupsReq(batchGroup{file: FileRecords, hops: maxHops, entries: []batchEntry{{key: 3, value: []byte("v")}}}),
		"past the hop bound, after a valid group": append(append([]byte(nil), valid...),
			groupsReq(batchGroup{file: FileRecords, del: true, hops: maxHops, entries: []batchEntry{{key: 3}}})...),
		"empty group":    append(append([]byte(nil), valid...), byte(FileIndex), 0, 0, 0, 0),
		"trailing bytes": append(append([]byte(nil), valid...), 0x01),
	} {
		if _, err := decode[putBatchReq](payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
		n := fuzzNode(t)
		seq := n.store.Seq()
		if _, err := n.Handler()(context.Background(), opPutBatch, payload); err == nil {
			t.Errorf("%s: node accepted it", name)
		}
		if got := n.store.Seq(); got != seq {
			t.Errorf("%s: rejected request journaled %d frames", name, got-seq)
		}
		probeNode(n)
	}
}

// TestDecodersRejectTruncation feeds every decoder truncated prefixes of
// valid messages: none may panic, and all must error (or decode a valid
// strict prefix — not possible here since all carry length fields). It
// also feeds them whole messages with field values a node cannot serve,
// which must error too.
func TestDecodersRejectTruncation(t *testing.T) {
	pieces := []disperse.Piece{1, 2, 3}
	cases := []struct {
		msg    message
		decode func([]byte) error
	}{
		{putReq{keyHeader{file: 1, addr: 2, key: 3}, []byte("abcdef")}, decodeErr[putReq]},
		{keyHeader{file: 1, addr: 2, key: 3}, decodeErr[keyHeader]},
		{keyResp{existed: true, iamAddr: 9, value: []byte("xyz")}, decodeErr[keyResp]},
		{indexValue{firstIndex: 1, pieces: pieces}, decodeErr[indexValue]},
		{searchReq{file: 1, kSites: 2, slotBits: 2, series: []searchSeries{{a: 1, patterns: [][]disperse.Piece{pieces, pieces}}}}, decodeErr[searchReq]},
		{searchResp{hits: []rawHit{{rid: 1, k: 1}}}, decodeErr[searchResp]},
		{migrateHeader{mid: 1, kind: migrateSplit, level: 3}, decodeErr[migrateHeader]},
		{migrateAbsorbReq{migrateHeader: migrateHeader{mid: 1, kind: migrateSplit}, batch: recordBatch{records: []kv{{key: 1, value: []byte("v")}}}}, decodeErr[migrateAbsorbReq]},
		{migrateFinishReq{mid: 4}, decodeErr[migrateFinishReq]},
		{wordSearchReq{file: 2, token: bytes.Repeat([]byte{1}, 16)}, decodeErr[wordSearchReq]},
		{wordSearchResp{rids: []uint64{8}}, decodeErr[wordSearchResp]},
		{statsResp{buckets: []bucketStat{{addr: 1, level: 1, size: 1}}}, decodeErr[statsResp]},
		{recoveryStateResp{mode: recoveryFresh, seq: 3}, decodeErr[recoveryStateResp]},
	}
	for i, c := range cases {
		msg := encode(c.msg)
		if err := c.decode(msg); err != nil {
			t.Fatalf("decoder %d (%T) rejects its own valid message: %v", i, c.msg, err)
		}
		for cut := 0; cut < len(msg); cut++ {
			if err := c.decode(msg[:cut]); err == nil {
				t.Errorf("decoder %d (%T) accepted truncation at %d/%d", i, c.msg, cut, len(msg))
			}
		}
	}

	unservable := []struct {
		msg    message
		decode func([]byte) error
	}{
		{searchReq{file: FileIndex, kSites: 0, slotBits: 2}, decodeErr[searchReq]},
		{searchReq{file: FileIndex, kSites: 2, slotBits: 64}, decodeErr[searchReq]},
		{migrateHeader{kind: migrateSplit, from: 0, to: 1 << 63, level: 63}, decodeErr[migrateHeader]},
		{migrateHeader{kind: migrateMerge, level: 64}, decodeErr[migrateHeader]},
		{migrateAbsorbReq{migrateHeader: migrateHeader{kind: migrateSplit, level: 200}}, decodeErr[migrateAbsorbReq]},
		{keyResp{}, func(b []byte) error { return decodeErr[keyResp](append([]byte{4}, b[1:]...)) }},
		{wordSearchReq{file: FileWords, token: []byte("short")}, decodeErr[wordSearchReq]},
	}
	for i, c := range unservable {
		if err := c.decode(encode(c.msg)); err == nil {
			t.Errorf("unservable message %d (%T %+v) decoded", i, c.msg, c.msg)
		}
	}
	// A split at level 62 creates its target at 63, the last usable level.
	if err := decodeErr[migrateHeader](encode(migrateHeader{kind: migrateSplit, level: 62})); err != nil {
		t.Errorf("split at level 62 rejected: %v", err)
	}
}

// TestOpCodesPinned: op codes are persisted in node journals, so every
// code in use keeps its number forever, and the retired numbers (the
// destructive split/merge ops, the whole-node snapshot and restore) stay
// unnamed — nodeMetrics registers no latency histogram for an op whose
// OpName is empty.
func TestOpCodesPinned(t *testing.T) {
	want := map[uint8]uint8{
		opPut: 1, opGet: 2, opDelete: 3, opSearch: 4,
		opStats: 8, opWordSearch: 11,
		opPutBatch: 14, opPing: 15, opRecoveryState: 16,
		opMigratePrepare: 17, opMigrateAbsorb: 18, opMigrateCommit: 19, opMigrateAbort: 20,
	}
	for op, num := range want {
		if op != num {
			t.Errorf("op %q has code %d, journals hold %d", OpName(op), op, num)
		}
		if OpName(op) == "" {
			t.Errorf("op %d has no name", op)
		}
	}
	for _, op := range []uint8{0, 5, 6, 7, 9, 10, 12, 13, 21} {
		if name := OpName(op); name != "" {
			t.Errorf("OpName(%d) = %q, want \"\" (retired or never assigned)", op, name)
		}
	}
}

// wireTap remembers the last request of each op (and the last prepare
// response) that crossed it.
type wireTap struct {
	transport.Transport
	mu          sync.Mutex
	last        map[uint8][]byte
	prepareResp []byte
}

func (w *wireTap) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	w.mu.Lock()
	w.last[op] = append([]byte(nil), payload...)
	w.mu.Unlock()
	resp, err := w.Transport.Send(ctx, node, op, payload)
	if op == opMigratePrepare {
		w.mu.Lock()
		w.prepareResp = append([]byte(nil), resp...)
		w.mu.Unlock()
	}
	return resp, err
}

// journalTap remembers every frame a node hands its store.
type journalTap struct {
	Store
	frames [][]byte // op byte, then payload
}

func (j *journalTap) Append(op uint8, payload []byte) (uint64, error) {
	j.frames = append(j.frames, append([]byte{op}, payload...))
	return j.Store.Append(op, payload)
}

func (j *journalTap) Journal(op uint8, payload []byte) error {
	j.frames = append(j.frames, append([]byte{op}, payload...))
	return j.Store.Journal(op, payload)
}

// migrationPins are TestWireBytesPinned's migration requests and node
// image: mid 1 splits bucket 0 (keys 0 to 5, values "migval-00k") of
// file 0 at level 0 into bucket 1, and mid 2 is aborted. Nodes journal
// these bytes, so a release's journals and checkpoints hold them
// (TestThreePhaseLocalMoveReplays replays them).
var migrationPins = map[string]string{
	"prepare": "0000000000000001" + "01" + "00" + "0000000000000000" + "0000000000000001" + "00",
	"absorb": "0000000000000001" + "01" + "00" + "0000000000000000" + "0000000000000001" + "00" +
		"00000003" +
		"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
		"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
		"0000000000000005" + "0000000a" + "6d696776616c2d303035",
	"commit": "0000000000000001",
	"abort":  "0000000000000002",
	// files: count, then file, bucket count, bucket snapshots; then the
	// migration section: marker, version, outgoing, absorbed, done
	"image with migration section": "00000001" + "00" + "00000001" +
		"00000098" + "0000000000000000" + "0000000000000000" + "00000006" +
		"0000000000000000" + "0000000a" + "6d696776616c2d303030" +
		"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
		"0000000000000002" + "0000000a" + "6d696776616c2d303032" +
		"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
		"0000000000000004" + "0000000a" + "6d696776616c2d303034" +
		"0000000000000005" + "0000000a" + "6d696776616c2d303035" +
		"4d" + "01" +
		"00000001" + "0000000000000001" + "01" + "00" + "0000000000000000" + "0000000000000001" + "00" +
		"00000003" + "0000000000000001" + "0000000000000003" + "0000000000000005" +
		"00000000" + "00000000",
}

// TestWireBytesPinned: nodes journal the requests they receive and
// checkpoint their images, so those bytes must not drift, or journals and
// checkpoints written by an earlier version stop replaying. It pins one
// request of every op a client or coordinator sends (and the put_batch a
// node forwards a stray in), the put and delete journal records of every
// data write, and a node image with a migration section. Responses are
// not pinned — both ends of a response change together — except the
// multi-group put_batch answers, which fix the per-group layout. The
// migration literals were captured by TestMigrationWireBytesPinned at
// 5bd14e1, the multi-group put_batch ones when groups were added, the
// forwarded put_batch when strays began to travel in one, everything
// else by this same test body at f13f763.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"prepare response": "01" + "00000003" +
			"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
			"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
			"0000000000000005" + "0000000a" + "6d696776616c2d303035",
		// file, addr, hops, key
		"get": "00" + "0000000000000000" + "00" + "0000000000000005",
		// op (1 put, 3 delete), then file, addr, hops, key[, value] as the
		// applying node resolved it
		"journal put":           "01" + "00" + "0000000000000000" + "00" + "0000000000000005" + "0000000a" + "6d696776616c2d303035",
		"journal forwarded put": "01" + "00" + "0000000000000001" + "00" + "0000000000000007" + "0000000a" + "6d696776616c2d303037",
		"journal delete":        "03" + "00" + "0000000000000000" + "00" + "0000000000000004",
		"journal put_batch entry": "01" + "01" + "0000000000000000" + "00" + "0000000000000007" +
			"00000010" + "00000000" + "00000004" + "3bc26f3edacb5471",
		// file, count, then addr, key, value (firstIndex, piece count, pieces)
		"put_batch": "01" + "00000004" +
			"0000000000000000" + "0000000000000004" + "0000000e" + "00000000" + "00000003" + "3309d69fc767" +
			"0000000000000000" + "0000000000000005" + "0000000e" + "00000000" + "00000003" + "4d5384348c35" +
			"0000000000000000" + "0000000000000006" + "00000010" + "00000000" + "00000004" + "0c1c1ae45e285a6d" +
			"0000000000000000" + "0000000000000007" + "00000010" + "00000000" + "00000004" + "3bc26f3edacb5471",
		// a stray's group, forwarded once: hops 1 in bits 5–6 of the file byte
		"forwarded put_batch": "20" + "00000001" + "0000000000000001" + "0000000000000007" + "0000000a" + "6d696776616c2d303037",
		// groups back to back; a delete group's file byte has 0x80 set and
		// its entries carry addr, key only
		"put_batch put+put": "02" + "00000001" + "0000000000000000" + "0000000000000001" + "00000002" + "7731" +
			"01" + "00000002" + "0000000000000000" + "0000000000000009" + "00000001" + "78" +
			"0000000000000000" + "000000000000000a" + "00000001" + "79",
		"put_batch put+delete": "02" + "00000001" + "0000000000000000" + "0000000000000002" + "00000002" + "7732" +
			"82" + "00000002" + "0000000000000000" + "0000000000000001" + "0000000000000000" + "0000000000000003",
		"put_batch delete-only": "82" + "00000001" + "0000000000000000" + "0000000000000002" +
			"81" + "00000001" + "0000000000000000" + "0000000000000009",
		// per group: count, then flags, IAM addr, IAM level, value length
		"put_batch put+put response": "00000001" + "00" + "0000000000000000" + "00" + "00000000" +
			"00000002" + "00" + "0000000000000000" + "00" + "00000000" + "00" + "0000000000000000" + "00" + "00000000",
		"put_batch put+delete response": "00000001" + "00" + "0000000000000000" + "00" + "00000000" +
			"00000002" + "01" + "0000000000000000" + "00" + "00000000" + "00" + "0000000000000000" + "00" + "00000000",
		"put_batch delete-only response": "00000001" + "01" + "0000000000000000" + "00" + "00000000" +
			"00000001" + "01" + "0000000000000000" + "00" + "00000000",
		// file, kSites, slotBits, series count, then a, pattern count, patterns
		"search": "01" + "02" + "02" + "0002" +
			"0000" + "02" + "00000001" + "1ae4" + "00000001" + "6f3e" +
			"0001" + "02" + "00000001" + "ea2a" + "00000001" + "f322",
		"word search": "02" + "00000010" + "abababababababababababababababab",
		"stats":       "00",
	}
	for name, pin := range migrationPins {
		want[name] = pin
	}
	ctx := context.Background()
	mem := transport.NewMemory()
	hook := &hookTr{inner: mem}
	tap := &wireTap{Transport: hook, last: map[uint8][]byte{}}
	place, err := NewPlacement([]transport.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var nodes [2]*Node
	var journals [2]*journalTap
	for i := range nodes {
		st, err := wal.Open(wal.NewMemFS(), "node", wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = &journalTap{Store: st}
		// Nodes forward through the tap too, so the forwarded put is seen.
		nodes[i] = NewNode(transport.NodeID(i), tap, place)
		if _, err := nodes[i].AttachStore(journals[i]); err != nil {
			t.Fatal(err)
		}
		mem.Register(transport.NodeID(i), nodes[i].Handler())
	}
	c := NewCluster(tap, place)
	c.SetMaxLoad(FileRecords, 1<<20)
	got := map[string]string{}
	pin := func(name string, b []byte) { got[name] = hex.EncodeToString(b) }
	lastFrame := func(node int) []byte { return journals[node].frames[len(journals[node].frames)-1] }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	for k := uint64(0); k < 6; k++ {
		must(c.Put(ctx, FileRecords, k, []byte(fmt.Sprintf("migval-%03d", k))))
		if k == 5 {
			pin("journal put", lastFrame(0))
		}
	}
	_, _, err = c.Get(ctx, FileRecords, 5)
	must(err)
	pin("get", tap.last[opGet])

	// A committed split, with node 0's image taken while its outgoing set
	// is in flight.
	hook.setAfter(func(_ transport.NodeID, op uint8) error {
		if op == opMigrateAbsorb {
			pin("image with migration section", imageOf(nodes[0]))
		}
		return nil
	})
	c.SetMaxLoad(FileRecords, 2)
	must(c.coord.split(ctx, FileRecords))
	c.SetMaxLoad(FileRecords, 16) // neither split nor merge until the abort below
	hook.setAfter(nil)
	pin("prepare", tap.last[opMigratePrepare])
	pin("prepare response", tap.prepareResp)
	pin("absorb", tap.last[opMigrateAbsorb])
	pin("commit", tap.last[opMigrateCommit])

	// The client image still has one bucket: key 7 goes to bucket 0 and
	// node 0 forwards it to bucket 1 on node 1.
	must(c.Put(ctx, FileRecords, 7, []byte("migval-007")))
	pin("forwarded put_batch", tap.last[opPutBatch])
	pin("journal forwarded put", lastFrame(1))
	_, err = c.Delete(ctx, FileRecords, 4)
	must(err)
	pin("journal delete", lastFrame(0))

	pl := testPipeline(t, 4, 2, 2)
	recs, err := pl.BuildIndex(1, []byte("ABCDEFGHIJKL"))
	must(err)
	must(c.InsertIndexed(ctx, FileIndex, recs, pl.K(), SlotBits(pl.Chunkings(), pl.K())))
	pin("put_batch", tap.last[opPutBatch])
	pin("journal put_batch entry", lastFrame(0))
	query, err := pl.BuildQuery([]byte("CDEFGH"), false)
	must(err)
	_, err = c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	must(err)
	pin("search", tap.last[opSearch])
	_, err = c.WordSearch(ctx, FileWords, bytes.Repeat([]byte{0xab}, 16))
	must(err)
	pin("word search", tap.last[opWordSearch])
	_, err = c.BucketInventory(ctx, FileRecords)
	must(err)
	pin("stats", tap.last[opStats])

	// Multi-group put_batch requests and node 0's answers: bucket 0 of
	// the words and index files is still level 0, so nothing forwards.
	for _, mg := range []struct {
		name   string
		groups []batchGroup
	}{
		{"put+put", []batchGroup{
			{file: FileWords, entries: []batchEntry{{key: 1, value: []byte("w1")}}},
			{file: FileIndex, entries: []batchEntry{{key: 9, value: []byte("x")}, {key: 10, value: []byte("y")}}},
		}},
		{"put+delete", []batchGroup{
			{file: FileWords, entries: []batchEntry{{key: 2, value: []byte("w2")}}},
			{file: FileWords, del: true, entries: []batchEntry{{key: 1}, {key: 3}}},
		}},
		{"delete-only", []batchGroup{
			{file: FileWords, del: true, entries: []batchEntry{{key: 2}}},
			{file: FileIndex, del: true, entries: []batchEntry{{key: 9}}},
		}},
	} {
		req := groupsReq(mg.groups...)
		resp, err := tap.Send(ctx, 0, opPutBatch, req)
		must(err)
		pin("put_batch "+mg.name, req)
		pin("put_batch "+mg.name+" response", resp)
	}

	// A split the source rejects is aborted. Bucket 0 splits into bucket
	// 2, also on node 0, so the prepare alone would apply it.
	c.SetMaxLoad(FileRecords, 1)
	hook.setBefore(rejectOnce(0, opMigratePrepare))
	if err := c.coord.split(ctx, FileRecords); err == nil {
		t.Fatal("split with a rejected prepare succeeded")
	}
	pin("abort", tap.last[opMigrateAbort])

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s\n got %q\nwant %q", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d payloads, want %d", len(got), len(want))
	}
}
