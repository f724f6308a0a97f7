package sdds

import (
	"bytes"
	"context"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/disperse"
	"repro/internal/transport"
)

func TestPutReqRoundTrip(t *testing.T) {
	prop := func(file uint8, addr uint64, hops uint8, key uint64, value []byte) bool {
		m := putReq{file: FileID(file), addr: addr, hops: hops, key: key, value: value}
		got, err := decodePutReq(m.encode())
		return err == nil && got.file == m.file && got.addr == m.addr &&
			got.hops == m.hops && got.key == m.key && bytes.Equal(got.value, m.value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPutRespRoundTrip(t *testing.T) {
	prop := func(isNew bool, addr uint64, level uint8, n uint32) bool {
		m := putResp{isNew: isNew, iamAddr: addr, iamLevel: level, bucketLen: n}
		got, err := decodePutResp(m.encode())
		return err == nil && got == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyReqValueRespRoundTrip(t *testing.T) {
	prop := func(file uint8, addr uint64, hops uint8, key uint64, found bool, value []byte) bool {
		kr := keyReq{file: FileID(file), addr: addr, hops: hops, key: key}
		gk, err := decodeKeyReq(kr.encode())
		if err != nil || gk != kr {
			return false
		}
		vr := valueResp{found: found, iamAddr: addr, iamLevel: hops, value: value}
		gv, err := decodeValueResp(vr.encode())
		return err == nil && gv.found == vr.found && gv.iamAddr == vr.iamAddr &&
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
		got, err := decodeIndexValue(m.encode())
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
		got, err := decodeSearchReq(req.encode())
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
		gotResp, err := decodeSearchResp(resp.encode())
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
		req, err := decodeMigrateAbsorbReq(migrateAbsorbReq{batch: m}.encode())
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
	if got, err := decodeMigratePrepareReq(migratePrepareReq{hdr}.encode()); err != nil || got.migrateHeader != hdr {
		t.Errorf("migratePrepare: %+v %v", got, err)
	}
	ab := migrateAbsorbReq{migrateHeader: hdr, batch: batch}
	if got, err := decodeMigrateAbsorbReq(ab.encode()); err != nil || !reflect.DeepEqual(got, ab) {
		t.Errorf("migrateAbsorb: %+v %v", got, err)
	}
	// A prepare response is a status byte and the same batch encoding the
	// absorb request carries behind its header: that identity is what
	// lets the coordinator relay the batch without decoding it.
	pr := migratePrepareResp{status: migrateStatusOK, batch: batch}.encode()
	w := &writer{}
	hdr.encodeTo(w)
	if relayed := append(w.b, pr[1:]...); pr[0] != migrateStatusOK || !bytes.Equal(relayed, ab.encode()) {
		t.Errorf("prepare response %x does not relay into absorb request %x", pr, ab.encode())
	}
	fin := migrateFinishReq{mid: 7}
	if got, err := decodeMigrateFinishReq(fin.encode()); err != nil || got != fin {
		t.Errorf("migrateFinish: %+v %v", got, err)
	}
	ws := wordSearchReq{file: FileWords, token: bytes.Repeat([]byte{7}, 16)}
	gotWS, err := decodeWordSearchReq(ws.encode())
	if err != nil || gotWS.file != ws.file || !bytes.Equal(gotWS.token, ws.token) {
		t.Errorf("wordSearch: %+v %v", gotWS, err)
	}
	wr := wordSearchResp{rids: []uint64{1, 99, 1 << 60}}
	gotWR, err := decodeWordSearchResp(wr.encode())
	if err != nil || len(gotWR.rids) != 3 || gotWR.rids[2] != 1<<60 {
		t.Errorf("wordSearchResp: %+v %v", gotWR, err)
	}
}

// TestDecodersRejectTruncation feeds every decoder truncated prefixes of
// valid messages: none may panic, and all must error (or decode a valid
// strict prefix — not possible here since all carry length fields).
func TestDecodersRejectTruncation(t *testing.T) {
	valid := [][]byte{
		putReq{file: 1, addr: 2, key: 3, value: []byte("abcdef")}.encode(),
		putResp{isNew: true, iamAddr: 9, bucketLen: 4}.encode(),
		keyReq{file: 1, addr: 2, key: 3}.encode(),
		valueResp{found: true, value: []byte("xyz")}.encode(),
		indexValue{firstIndex: 1, pieces: []disperse.Piece{1, 2, 3}}.encode(),
		migrateAbsorbReq{migrateHeader: migrateHeader{mid: 1, kind: migrateSplit}, batch: recordBatch{records: []kv{{key: 1, value: []byte("v")}}}}.encode(),
		wordSearchReq{file: 2, token: bytes.Repeat([]byte{1}, 16)}.encode(),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := decodePutReq(b); return err },
		func(b []byte) error { _, err := decodePutResp(b); return err },
		func(b []byte) error { _, err := decodeKeyReq(b); return err },
		func(b []byte) error { _, err := decodeValueResp(b); return err },
		func(b []byte) error { _, err := decodeIndexValue(b); return err },
		func(b []byte) error { _, err := decodeMigrateAbsorbReq(b); return err },
		func(b []byte) error { _, err := decodeWordSearchReq(b); return err },
	}
	for i, msg := range valid {
		if err := decoders[i](msg); err != nil {
			t.Fatalf("decoder %d rejects its own valid message: %v", i, err)
		}
		for cut := 0; cut < len(msg); cut++ {
			if err := decoders[i](msg[:cut]); err == nil {
				t.Errorf("decoder %d accepted truncation at %d/%d", i, cut, len(msg))
			}
		}
	}
}

// TestOpCodesPinned: op codes are persisted in node journals, so every
// code in use keeps its number forever, and the retired destructive
// split/merge numbers stay unnamed — nodeMetrics registers no latency
// histogram for an op whose OpName is empty.
func TestOpCodesPinned(t *testing.T) {
	want := map[uint8]uint8{
		opPut: 1, opGet: 2, opDelete: 3, opSearch: 4,
		opStats: 8, opWordSearch: 11, opNodeSnapshot: 12, opNodeRestore: 13,
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
	for _, op := range []uint8{0, 5, 6, 7, 9, 10, 21} {
		if name := OpName(op); name != "" {
			t.Errorf("OpName(%d) = %q, want \"\" (retired or never assigned)", op, name)
		}
	}
}

// wireTap records the two payloads of a migration that carry records.
type wireTap struct {
	transport.Transport
	prepareResp, absorbReq []byte
}

func (w *wireTap) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	resp, err := w.Transport.Send(ctx, node, op, payload)
	switch op {
	case opMigratePrepare:
		w.prepareResp = append([]byte(nil), resp...)
	case opMigrateAbsorb:
		w.absorbReq = append([]byte(nil), payload...)
	}
	return resp, err
}

// TestMigrationWireBytesPinned: nodes journal the absorb request they
// receive, so its bytes — and the prepare response they are relayed from
// — must not drift, or journals written by an earlier version stop
// replaying. The literals were captured by this same test body at
// 5bd14e1, where the coordinator still decoded the response into records
// and re-encoded them.
func TestMigrationWireBytesPinned(t *testing.T) {
	const (
		wantPrepareResp = "01" + "00000003" +
			"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
			"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
			"0000000000000005" + "0000000a" + "6d696776616c2d303035"
		wantAbsorbReq = "0000000000000001" + "01" + "00" + "0000000000000000" + "0000000000000001" + "00" +
			"00000003" +
			"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
			"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
			"0000000000000005" + "0000000a" + "6d696776616c2d303035"
	)
	h := newMigHarness(t, 2)
	h.load(FileRecords, 6)
	h.c.SetMaxLoad(FileRecords, 2)
	tap := &wireTap{Transport: h.mem}
	h.hook.inner = tap
	if err := h.c.split(context.Background(), FileRecords); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(tap.prepareResp); got != wantPrepareResp {
		t.Errorf("prepare response\n got %s\nwant %s", got, wantPrepareResp)
	}
	if got := hex.EncodeToString(tap.absorbReq); got != wantAbsorbReq {
		t.Errorf("absorb request\n got %s\nwant %s", got, wantAbsorbReq)
	}
}
