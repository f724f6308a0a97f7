package sdds

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/disperse"
)

// Fuzz targets: every decoder must be total — arbitrary bytes either
// decode or error, never panic — and every encoder must round-trip
// through its decoder bit-exactly.

func FuzzDecodePutReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(putReq{file: FileIndex, addr: 5, hops: 1, key: 99, value: []byte("v")}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodePutReq(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
	})
}

func FuzzDecodeKeyReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(keyReq{file: FileRecords, addr: 3, key: 7}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeKeyReq(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
	})
}

func FuzzDecodeValueResp(f *testing.F) {
	f.Add([]byte{})
	f.Add(valueResp{found: true, iamAddr: 2, iamLevel: 1, value: []byte("abc")}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeValueResp(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
	})
}

func FuzzDecodeSearchReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(searchReq{
		file: FileIndex, kSites: 2, slotBits: 2,
		series: []searchSeries{{a: 1, patterns: [][]disperse.Piece{{1, 2}, {3}}}},
	}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := decodeSearchReq(b); err != nil {
			return
		}
		// A valid decode of fuzzer bytes need not re-encode bit-exactly
		// (nil vs empty slices), but must decode again identically.
		m, _ := decodeSearchReq(b)
		m2, err := decodeSearchReq(m.encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(m2.series) != len(m.series) {
			t.Fatalf("series count changed: %d -> %d", len(m.series), len(m2.series))
		}
	})
}

func FuzzDecodeSearchResp(f *testing.F) {
	f.Add([]byte{})
	f.Add(searchResp{hits: []rawHit{{rid: 1, j: 0, k: 1, a: 2, firstIndex: 0, pieceOffset: 3}}}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeSearchResp(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
	})
}

// FuzzDecodeMigrateAbsorbReq covers the one decoder of a record batch:
// the coordinator relays the batch bytes of a prepare response without
// looking at them, so this is where they are first checked.
func FuzzDecodeMigrateAbsorbReq(f *testing.F) {
	hdr := &writer{}
	migrateHeader{mid: 3, kind: migrateSplit, file: FileIndex, from: 1, to: 3, level: 1}.encodeTo(hdr)
	batch := recordBatch{records: []kv{{key: 1, value: []byte("a")}, {key: 2, value: nil}}}
	f.Add([]byte{})
	f.Add(hdr.b)
	f.Add(migrateAbsorbReq{batch: batch}.encode())
	// The old prepare-response seed, as the coordinator relays it.
	f.Add(append(hdr.b[:len(hdr.b):len(hdr.b)], migratePrepareResp{status: migrateStatusOK, batch: batch}.encode()[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMigrateAbsorbReq(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
	})
}

func FuzzDecodeNodeImage(f *testing.F) {
	f.Add([]byte{})
	f.Add(nodeImage{files: []fileImage{{file: FileRecords, buckets: [][]byte{{1, 2, 3}}}}}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := decodeNodeImage(b); err != nil {
			return
		}
	})
}

func FuzzDecodeIndexValue(f *testing.F) {
	f.Add([]byte{})
	f.Add(indexValue{firstIndex: 2, pieces: []disperse.Piece{9, 8, 7}}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeIndexValue(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch: %x -> %x", b, got)
		}
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
		pr := putReq{
			file:  FileID(rng.Intn(3)),
			addr:  rng.Uint64(),
			hops:  uint8(rng.Intn(4)),
			key:   rng.Uint64(),
			value: randBytes(rng, 64),
		}
		got, err := decodePutReq(pr.encode())
		if err != nil {
			t.Fatalf("putReq: %v", err)
		}
		if got.file != pr.file || got.addr != pr.addr || got.hops != pr.hops ||
			got.key != pr.key || !bytes.Equal(got.value, pr.value) {
			t.Fatalf("putReq round trip: %+v -> %+v", pr, got)
		}

		batch := recordBatch{}
		for j := rng.Intn(8); j > 0; j-- {
			batch.records = append(batch.records, kv{key: rng.Uint64(), value: randBytes(rng, 32)})
		}
		absorb, err := decodeMigrateAbsorbReq(migrateAbsorbReq{batch: batch}.encode())
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
		enc := img.encode()
		// Zero padding (parity-shard equalization) must be tolerated.
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
	enc := append(img.encode(), 0, 0, 5)
	if _, err := decodeNodeImage(enc); err == nil {
		t.Fatal("non-zero trailer accepted")
	}
}
