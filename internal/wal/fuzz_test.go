package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the journal scanner and the
// frame decoder, checking the invariants recovery relies on: no panics,
// every complete frame either round-trips exactly or is reported
// corrupt, a clean scan yields contiguous sequence numbers with the
// consumed prefix re-encoding to the same bytes, and a zero tail behind
// that prefix — a preallocated extent — adds no entry and no corruption,
// a clean scan that stops early drops one frame at most, and a flipped
// length bit in an accepted frame is corruption, never a shorter replay.
func FuzzWALDecode(f *testing.F) {
	// Seeds: a valid two-frame journal, a torn tail, a bit-flipped
	// frame, a sequence gap, a bad magic, raw garbage, and the
	// preallocated layout: a valid journal followed by a zero extent, a
	// frame torn at a sector boundary with zeros behind it, a bit flip in
	// the last frame before the zero tail, a bit flip in a frame whose
	// payload holds whole zero sectors, with a frame behind it, and a
	// frame whose payload ends in whole zero sectors (a length flip that
	// shortens it leaves a frame that ends like a tear).
	valid := append([]byte(nil), logMagic...)
	valid = appendFrame(valid, 1, 3, []byte("alpha"))
	valid = appendFrame(valid, 2, 7, []byte("beta-payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(logMagic)+frameOverhead+1] ^= 0x10
	f.Add(flipped)
	gap := append([]byte(nil), logMagic...)
	gap = appendFrame(gap, 1, 1, []byte("a"))
	gap = appendFrame(gap, 3, 1, []byte("b"))
	f.Add(gap)
	f.Add([]byte("NOTMAGIC"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(appendFrame(nil, 42, 9, bytes.Repeat([]byte{0xab}, 100)))
	zeroTailed := append(append([]byte(nil), valid...), make([]byte, 4096)...)
	f.Add(zeroTailed)
	torn := appendFrame(append([]byte(nil), valid...), 3, 1, bytes.Repeat([]byte{0xcd}, 1000))
	clear(torn[tearSector:])
	f.Add(append(torn, make([]byte, 2*tearSector)...))
	lastFlipped := append([]byte(nil), zeroTailed...)
	lastFlipped[len(valid)-3] ^= 0x01
	f.Add(lastFlipped)
	zeroRun := appendFrame(append([]byte(nil), logMagic...), 1, 1, make([]byte, 1<<10))
	zeroRun = appendFrame(zeroRun, 2, 1, []byte("behind"))
	zeroRun[len(logMagic)+frameOverhead] ^= 0x01
	f.Add(append(zeroRun, make([]byte, tearSector)...))
	f.Add(appendFrame(append([]byte(nil), logMagic...), 1, 1, append([]byte("tail:"), make([]byte, 4*tearSector)...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, goodLen, lastSeq, err := scanJournal(data, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scanJournal error not ErrCorrupt: %v", err)
			}
		} else {
			if goodLen < 0 || goodLen > len(data) {
				t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
			}
			// Contiguity: a clean scan never leaves sequence holes.
			for i, e := range entries {
				if e.Seq != uint64(i)+1 {
					t.Fatalf("entry %d has seq %d", i, e.Seq)
				}
			}
			if len(entries) > 0 && lastSeq != entries[len(entries)-1].Seq {
				t.Fatalf("lastSeq %d, final entry seq %d", lastSeq, entries[len(entries)-1].Seq)
			}
			// Re-encoding the accepted prefix reproduces it byte for
			// byte — the decoder accepted nothing it cannot write.
			if goodLen >= len(logMagic) {
				enc := append([]byte(nil), logMagic...)
				for _, e := range entries {
					enc = appendFrame(enc, e.Seq, e.Op, e.Payload)
				}
				if !bytes.Equal(enc, data[:goodLen]) {
					t.Fatalf("accepted prefix does not round-trip: %d vs %d bytes", len(enc), goodLen)
				}
			}
			// Whatever a clean scan leaves behind the accepted prefix,
			// zeros aside, lies inside the one frame that starts there:
			// nothing acknowledged behind a dropped frame is lost.
			if zt := zeroTail(data); goodLen < zt && goodLen+4 <= len(data) {
				end := int64(goodLen) + frameOverhead + int64(binary.BigEndian.Uint32(data[goodLen:]))
				if end < int64(zt) {
					t.Fatalf("scan stopped at %d, but the frame there ends at %d and data runs on to %d", goodLen, end, zt)
				}
			}
			// The accepted prefix plus a zero tail scans to the same
			// verdict: zeros are the journal's end, never an entry and
			// never corruption.
			padded := append(data[:goodLen:goodLen], make([]byte, 1+len(data)%(3*tearSector))...)
			zEntries, zGood, zLast, zerr := scanJournal(padded, 0)
			if zerr != nil || zGood != goodLen || zLast != lastSeq || len(zEntries) != len(entries) {
				t.Fatalf("zero tail after the accepted prefix: %d entries to %d (last %d), %v; want %d to %d (last %d)",
					len(zEntries), zGood, zLast, zerr, len(entries), goodLen, lastSeq)
			}
			// N intact frames plus one flipped length bit, with or
			// without the zero tail, never recover fewer than N entries
			// without ErrCorrupt: a damaged length is not a tear. Every
			// bit of one frame, picked by the input's length, is tried.
			if n := len(entries); n > 0 {
				off := len(logMagic)
				for _, e := range entries[:len(data)%n] {
					off += frameOverhead + len(e.Payload)
				}
				for _, image := range [][]byte{data[:goodLen], padded} {
					for bit := 0; bit < 32; bit++ {
						flipped := append([]byte(nil), image...)
						flipped[off+3-bit/8] ^= 1 << (bit % 8)
						if fEntries, _, _, ferr := scanJournal(flipped, 0); ferr == nil && len(fEntries) < n {
							t.Fatalf("length bit %d of the frame at %d flipped (%d-byte image): %d of %d entries, no error",
								bit, off, len(image), len(fEntries), n)
						}
					}
				}
			}
		}

		// Single-frame decoder: success must round-trip exactly.
		if e, n, derr := decodeFrame(data); derr == nil {
			if got := appendFrame(nil, e.Seq, e.Op, e.Payload); !bytes.Equal(got, data[:n]) {
				t.Fatalf("decodeFrame round-trip mismatch (%d bytes)", n)
			}
		}

		// Checkpoint decoder on the same corpus: no panics, errors are
		// ErrCorrupt.
		if _, _, cerr := decodeCheckpoint(data); cerr != nil && !errors.Is(cerr, ErrCorrupt) {
			t.Fatalf("decodeCheckpoint error not ErrCorrupt: %v", cerr)
		}
	})
}
