package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// replayState is the reference model used across the tests: a store
// whose whole state is the ordered list of (op, payload) mutations, with
// a trivially checkable checkpoint encoding.
type replayState struct {
	ops []Entry
}

func (r *replayState) apply(op uint8, payload []byte) error {
	r.ops = append(r.ops, Entry{Op: op, Payload: append([]byte(nil), payload...)})
	return nil
}

func (r *replayState) image() []byte {
	var out []byte
	for _, e := range r.ops {
		out = append(out, e.Op)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Payload)))
		out = append(out, e.Payload...)
	}
	return out
}

func (r *replayState) restore(image []byte) error {
	r.ops = nil
	for len(image) > 0 {
		if len(image) < 5 {
			return errors.New("short image")
		}
		op := image[0]
		n := int(binary.BigEndian.Uint32(image[1:]))
		if len(image) < 5+n {
			return errors.New("short image payload")
		}
		r.ops = append(r.ops, Entry{Op: op, Payload: append([]byte(nil), image[5:5+n]...)})
		image = image[5+n:]
	}
	return nil
}

func sameOps(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func mustOpen(t *testing.T, fsys FS, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(fsys, dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func payload(i int) []byte { return []byte(fmt.Sprintf("payload-%04d", i)) }

// memLayout is one of the two journal layouts MemFS models: append
// (what OSFS writes without fallocate, and what a cleanly closed store
// holds) and zero-tail (what OSFS writes on Linux). A zero-tail journal
// tears only at sector boundaries, so its layout repeats test payloads
// scale times, long enough that frames straddle the boundaries. The
// append layout's name is empty, so its subtests keep the names they had
// before the zero-tail layout existed.
type memLayout struct {
	name  string
	newFS func() *MemFS
	scale int
}

var memLayouts = []memLayout{{"", NewMemFS, 1}, {"zerotail/", NewZeroTailMemFS, 20}}

// pay scales a test payload for the layout.
func (l memLayout) pay(p []byte) []byte { return bytes.Repeat(p, l.scale) }

func TestFreshStore(t *testing.T) {
	s := mustOpen(t, NewMemFS(), "d", Options{})
	out, err := s.Recover(func([]byte) error { t.Fatal("restore on fresh"); return nil },
		func(uint8, []byte) error { t.Fatal("apply on fresh"); return nil })
	if err != nil || out != OutcomeFresh {
		t.Fatalf("Recover = %v, %v; want fresh", out, err)
	}
	if s.Seq() != 0 {
		t.Fatalf("Seq = %d on fresh store", s.Seq())
	}
}

// TestEmptyJournalReopensRecovered: a store that finds its own header
// has existed before, even if it never journaled a frame (a node killed
// before its first write). Only a directory with no store files is
// fresh, so "fresh on restart" means the disk was lost.
func TestEmptyJournalReopensRecovered(t *testing.T) {
	fsys := NewMemFS()
	mustOpen(t, fsys, "d", Options{}).Abort()
	s := mustOpen(t, fsys, "d", Options{})
	out, err := s.Recover(func([]byte) error { t.Fatal("restore without a checkpoint"); return nil },
		func(uint8, []byte) error { t.Fatal("apply without frames"); return nil })
	if err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v; want recovered with nothing to replay", out, err)
	}
	if s.Seq() != 0 {
		t.Fatalf("Seq = %d, want 0", s.Seq())
	}
}

func TestJournalReplayRoundtrip(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	var ref replayState
	for i := 0; i < 20; i++ {
		if err := s.Journal(uint8(i%5+1), payload(i)); err != nil {
			t.Fatalf("Journal %d: %v", i, err)
		}
		ref.apply(uint8(i%5+1), payload(i)) //nolint:errcheck
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, fsys, "d", Options{})
	var got replayState
	out, err := s2.Recover(got.restore, got.apply)
	if err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v; want recovered", out, err)
	}
	if !sameOps(got.ops, ref.ops) {
		t.Fatalf("replayed %d ops, want %d (or payload mismatch)", len(got.ops), len(ref.ops))
	}
	if s2.Seq() != 20 {
		t.Fatalf("Seq = %d, want 20", s2.Seq())
	}
	// Replay material is consumed.
	if out, _ := s2.Recover(nil, nil); out != OutcomeFresh {
		t.Fatalf("second Recover = %v, want fresh", out)
	}
}

func TestCheckpointAndReplay(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	var ref replayState
	for i := 0; i < 10; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
		ref.apply(1, payload(i)) //nolint:errcheck
	}
	if err := s.Checkpoint(ref.image()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 10; i < 15; i++ {
		if err := s.Journal(2, payload(i)); err != nil {
			t.Fatal(err)
		}
		ref.apply(2, payload(i)) //nolint:errcheck
	}
	s.Close()

	s2 := mustOpen(t, fsys, "d", Options{})
	var got replayState
	restored := false
	out, err := s2.Recover(
		func(img []byte) error { restored = true; return got.restore(img) },
		got.apply)
	if err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v", out, err)
	}
	if !restored {
		t.Fatal("checkpoint image not offered to restore")
	}
	if !sameOps(got.ops, ref.ops) {
		t.Fatalf("state mismatch after checkpoint replay: got %d ops, want %d", len(got.ops), len(ref.ops))
	}
}

func TestCheckpointDueCadence(t *testing.T) {
	s := mustOpen(t, NewMemFS(), "d", Options{CheckpointBytes: 64})
	if s.CheckpointDue() {
		t.Fatal("due on empty journal")
	}
	for i := 0; !s.CheckpointDue(); i++ {
		if i > 100 {
			t.Fatal("never due")
		}
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint([]byte("img")); err != nil {
		t.Fatal(err)
	}
	if s.CheckpointDue() {
		t.Fatal("still due after checkpoint")
	}
}

func TestTornTailTruncated(t *testing.T) {
	for cut := 1; cut < frameOverhead+8; cut += 3 {
		fsys := NewMemFS()
		s := mustOpen(t, fsys, "d", Options{})
		for i := 0; i < 3; i++ {
			if err := s.Journal(1, payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		// Tear the last frame by appending a truncated fourth frame.
		frame := appendFrame(nil, 4, 1, payload(3))
		data, err := fsys.ReadFile("d/wal.log")
		if err != nil {
			t.Fatal(err)
		}
		fsys.files["d/wal.log"].durable = append(data, frame[:cut]...)

		s2 := mustOpen(t, fsys, "d", Options{})
		var got replayState
		out, err := s2.Recover(got.restore, got.apply)
		if err != nil || out != OutcomeRecovered {
			t.Fatalf("cut %d: Recover = %v, %v", cut, out, err)
		}
		if len(got.ops) != 3 {
			t.Fatalf("cut %d: replayed %d ops, want 3", cut, len(got.ops))
		}
		// The tail is gone from disk too: journaling must continue cleanly.
		if err := s2.Journal(1, payload(99)); err != nil {
			t.Fatalf("cut %d: Journal after truncation: %v", cut, err)
		}
	}

	// The zero-tail layout: the fourth frame keeps whole sectors up to
	// each boundary inside it and zeros after, into the preallocated
	// extent. It starts 1..17 bytes short of a boundary (tearing its
	// header), or far from one.
	for _, short := range []int{1, 3, 4, 7, 8, 12, 17, 200} {
		start := 2*tearSector - short
		head := append([]byte(nil), logMagic...)
		head = appendFrame(head, 1, 1, payload(0))
		head = appendFrame(head, 2, 1, payload(1))
		head = appendFrame(head, 3, 1, bytes.Repeat([]byte{'p'}, start-len(head)-frameOverhead))
		frame := appendFrame(nil, 4, 1, bytes.Repeat([]byte{'q'}, 1500))
		for b := 2 * tearSector; b < start+len(frame); b += tearSector {
			image := make([]byte, memExtent)
			copy(image, head)
			copy(image[start:], frame[:b-start])
			fsys := NewZeroTailMemFS()
			fsys.files["d/wal.log"] = &memFile{durable: image}

			s2 := mustOpen(t, fsys, "d", Options{})
			var got replayState
			out, err := s2.Recover(got.restore, got.apply)
			if err != nil || out != OutcomeRecovered {
				t.Fatalf("zero tail, frame at %d torn at %d: Recover = %v, %v", start, b, out, err)
			}
			if len(got.ops) != 3 {
				t.Fatalf("zero tail, frame at %d torn at %d: replayed %d ops, want 3", start, b, len(got.ops))
			}
			if err := s2.Journal(1, payload(99)); err != nil {
				t.Fatalf("zero tail, frame at %d torn at %d: Journal after truncation: %v", start, b, err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			var again replayState
			if _, err := mustOpen(t, fsys, "d", Options{}).Recover(again.restore, again.apply); err != nil || len(again.ops) != 4 {
				t.Fatalf("zero tail, frame at %d torn at %d: second recovery = %d ops, %v; want 4", start, b, len(again.ops), err)
			}
		}
	}
}

func TestBitFlipIsCorrupt(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	for i := 0; i < 5; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Flip a bit inside the first frame's payload — a complete frame
	// with a bad checksum is corruption, never a torn tail.
	if err := fsys.FlipBit("d/wal.log", len(logMagic)+frameOverhead+2, 3); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, fsys, "d", Options{})
	out, err := s2.Recover(nil, nil)
	if out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, %v; want corrupt", out, err)
	}
	// Corrupt stores refuse writes.
	if err := s2.Journal(1, payload(0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Journal on corrupt store = %v, want ErrCorrupt", err)
	}

	// The preallocated layout after a crash: the zeros behind the last
	// frame are no licence to drop it. A flip in the first frame, and
	// one in the last frame before the zero tail, are both corruption,
	// and the refused journal is left as it was.
	for _, frame := range []int{0, 4} {
		fsys := NewZeroTailMemFS()
		s := mustOpen(t, fsys, "d", Options{})
		for i := 0; i < 5; i++ {
			if err := s.Journal(1, payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Cut the power: the synced frames and the zeros stay.
		fsys.SetCrash(1, CrashDrop)
		if err := s.Journal(1, payload(999)); err == nil {
			t.Fatal("armed crash never fired")
		}
		s.Abort()
		fsys.Restart()
		if sz, _ := fsys.Size("d/wal.log"); sz != memExtent {
			t.Fatalf("crashed journal holds %d bytes, want the %d-byte extent", sz, memExtent)
		}
		off := len(logMagic) + frame*(frameOverhead+len(payload(0))) + frameOverhead + 2
		if err := fsys.FlipBit("d/wal.log", off, 3); err != nil {
			t.Fatal(err)
		}
		flipped, _ := fsys.ReadFile("d/wal.log")
		s2 := mustOpen(t, fsys, "d", Options{})
		if out, err := s2.Recover(nil, nil); out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("zero tail, flip in frame %d: Recover = %v, %v; want corrupt", frame, out, err)
		}
		if after, _ := fsys.ReadFile("d/wal.log"); !bytes.Equal(after, flipped) {
			t.Fatalf("zero tail, flip in frame %d: the corrupt journal changed", frame)
		}
	}

	// Nor is a long run of zeros inside a frame, on either layout: a
	// flip in a frame whose payload holds whole zero sectors, with an
	// acknowledged frame behind it, is corruption.
	for _, fsys := range []*MemFS{NewMemFS(), NewZeroTailMemFS()} {
		s := mustOpen(t, fsys, "d", Options{})
		zeros := append([]byte("zeros:"), make([]byte, 1<<10)...)
		for _, p := range [][]byte{zeros, payload(1)} {
			if err := s.Journal(1, p); err != nil {
				t.Fatal(err)
			}
		}
		fsys.SetCrash(1, CrashDrop)
		if err := s.Journal(1, payload(999)); err == nil {
			t.Fatal("armed crash never fired")
		}
		s.Abort()
		fsys.Restart()
		if err := fsys.FlipBit("d/wal.log", len(logMagic)+frameOverhead+2, 3); err != nil {
			t.Fatal(err)
		}
		flipped, _ := fsys.ReadFile("d/wal.log")
		s2 := mustOpen(t, fsys, "d", Options{})
		if out, err := s2.Recover(nil, nil); out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("zero-run frame (zero tail %v): Recover = %v, %v; want corrupt", fsys.zeroTail, out, err)
		}
		if after, _ := fsys.ReadFile("d/wal.log"); !bytes.Equal(after, flipped) {
			t.Fatalf("zero-run frame (zero tail %v): the corrupt journal changed", fsys.zeroTail)
		}
	}
}

// TestLengthFlipIsCorrupt: the CRC does not cover a frame's length, so
// a flipped length bit can make a frame run past the written journal
// like a torn append, or into a preallocated zero tail like a tear.
// Each of the 32 bits, flipped in the first and in a middle frame of a
// cleanly closed journal and of a crashed zero-tail one, is corruption:
// no acknowledged frame is dropped and the journal is left as it was.
func TestLengthFlipIsCorrupt(t *testing.T) {
	const frames, middle = 5, 2
	for _, crashed := range []bool{false, true} {
		for _, frame := range []int{0, middle} {
			for bit := 0; bit < 32; bit++ {
				fsys := NewMemFS()
				if crashed {
					fsys = NewZeroTailMemFS()
				}
				s := mustOpen(t, fsys, "d", Options{})
				for i := 0; i < frames; i++ {
					if err := s.Journal(1, payload(i)); err != nil {
						t.Fatal(err)
					}
				}
				if crashed {
					fsys.SetCrash(1, CrashDrop)
					if err := s.Journal(1, payload(999)); err == nil {
						t.Fatal("armed crash never fired")
					}
					s.Abort()
					fsys.Restart()
				} else if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				// The length is big-endian: bit b sits in byte 3-b/8.
				off := len(logMagic) + frame*(frameOverhead+len(payload(0))) + 3 - bit/8
				if err := fsys.FlipBit("d/wal.log", off, uint(bit%8)); err != nil {
					t.Fatal(err)
				}
				flipped, _ := fsys.ReadFile("d/wal.log")
				out, err := mustOpen(t, fsys, "d", Options{}).Recover(func([]byte) error { return nil }, func(uint8, []byte) error { return nil })
				if out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("crashed %v, frame %d, length bit %d: Recover = %v, %v; want corrupt", crashed, frame, bit, out, err)
				}
				if after, _ := fsys.ReadFile("d/wal.log"); !bytes.Equal(after, flipped) {
					t.Fatalf("crashed %v, frame %d, length bit %d: the corrupt journal changed", crashed, frame, bit)
				}
			}
		}
	}
}

func TestCheckpointBitFlipIsCorrupt(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	for i := 0; i < 4; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint([]byte("checkpoint image bytes")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := fsys.FlipBit("d/checkpoint", len(ckptMagic)+16+3, 1); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, fsys, "d", Options{})
	out, err := s2.Recover(nil, nil)
	if out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, %v; want corrupt", out, err)
	}
}

func TestSequenceGapIsCorrupt(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	for i := 0; i < 3; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Append a frame that skips a sequence number: a hole, not a tear.
	f := fsys.files["d/wal.log"]
	f.durable = appendFrame(f.durable, 5, 1, payload(5))

	s2 := mustOpen(t, fsys, "d", Options{})
	out, err := s2.Recover(nil, nil)
	if out != OutcomeCorrupt || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, %v; want corrupt", out, err)
	}
}

func TestStaleEntriesSkipped(t *testing.T) {
	// A crash between checkpoint rename and journal truncation leaves
	// already-checkpointed entries in the journal; replay must skip
	// them instead of applying twice.
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	var ref replayState
	for i := 0; i < 6; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
		ref.apply(1, payload(i)) //nolint:errcheck
	}
	logImage := append([]byte(nil), fsys.files["d/wal.log"].durable...)
	if err := s.Checkpoint(ref.image()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Resurrect the pre-truncation journal next to the new checkpoint.
	fsys.files["d/wal.log"].durable = logImage

	s2 := mustOpen(t, fsys, "d", Options{})
	var got replayState
	applied := 0
	out, err := s2.Recover(got.restore, func(op uint8, p []byte) error {
		applied++
		return got.apply(op, p)
	})
	if err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v", out, err)
	}
	if applied != 0 {
		t.Fatalf("replayed %d stale entries, want 0", applied)
	}
	if !sameOps(got.ops, ref.ops) {
		t.Fatal("state mismatch after stale-skip replay")
	}
}

func TestClosedStore(t *testing.T) {
	s := mustOpen(t, NewMemFS(), "d", Options{})
	s.Close()
	if err := s.Journal(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Journal after Close = %v, want ErrClosed", err)
	}
	if err := s.Checkpoint(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestAbortKeepsDurable(t *testing.T) {
	fsys := NewMemFS()
	s := mustOpen(t, fsys, "d", Options{})
	for i := 0; i < 4; i++ {
		if err := s.Journal(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()
	s2 := mustOpen(t, fsys, "d", Options{})
	var got replayState
	out, err := s2.Recover(got.restore, got.apply)
	if err != nil || out != OutcomeRecovered || len(got.ops) != 4 {
		t.Fatalf("Recover after Abort = %v, %v, %d ops", out, err, len(got.ops))
	}
}

func TestOSFSRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, OSFS{}, dir, Options{})
	var ref replayState
	for i := 0; i < 8; i++ {
		if err := s.Journal(3, payload(i)); err != nil {
			t.Fatal(err)
		}
		ref.apply(3, payload(i)) //nolint:errcheck
	}
	if err := s.Checkpoint(ref.image()); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		if err := s.Journal(4, payload(i)); err != nil {
			t.Fatal(err)
		}
		ref.apply(4, payload(i)) //nolint:errcheck
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, OSFS{}, dir, Options{})
	var got replayState
	out, err := s2.Recover(got.restore, got.apply)
	if err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v", out, err)
	}
	if !sameOps(got.ops, ref.ops) {
		t.Fatal("state mismatch on real filesystem")
	}
	s2.Close()
}

// TestCrashMatrix is the WAL-level half of the fault matrix: a scripted
// journal/checkpoint workload is cut at every filesystem operation, in
// every tear mode, and the replayed state must equal the reference built
// from acknowledged operations — optionally extended by the single
// unacknowledged operation in flight at the crash. Anything else (a lost
// acked op, a corrupt verdict, extra ops) is silent data loss or
// over-replay and fails.
func TestCrashMatrix(t *testing.T) {
	// workload drives a fixed script against the store, mirroring every
	// acknowledged mutation into ref. It stops at the first crash error,
	// recording the op that was in flight.
	workload := func(s *Store, ref *replayState, layout memLayout) (inflight *Entry, crashed bool) {
		step := 0
		journal := func(op uint8) bool {
			p := layout.pay(payload(step))
			step++
			if err := s.Journal(op, p); err != nil {
				inflight = &Entry{Op: op, Payload: p}
				return false
			}
			ref.apply(op, p) //nolint:errcheck
			return true
		}
		checkpoint := func() bool {
			return s.Checkpoint(ref.image()) == nil
		}
		for i := 0; i < 6; i++ {
			if !journal(uint8(i%3 + 1)) {
				return inflight, true
			}
		}
		if !checkpoint() {
			return nil, true
		}
		for i := 0; i < 4; i++ {
			if !journal(4) {
				return inflight, true
			}
		}
		if !checkpoint() {
			return nil, true
		}
		for i := 0; i < 3; i++ {
			if !journal(5) {
				return inflight, true
			}
		}
		return nil, false
	}

	for _, layout := range memLayouts {
		// Dry run to count crash points. SetCrash(0) resets the op
		// counter so it spans exactly the workload, as in the armed runs
		// below.
		probe := layout.newFS()
		s := mustOpen(t, probe, "d", Options{})
		probe.SetCrash(0, CrashDrop)
		if _, crashed := workload(s, &replayState{}, layout); crashed {
			t.Fatal("dry run crashed")
		}
		totalOps := probe.Ops()
		s.Close()
		if totalOps < 20 {
			t.Fatalf("workload too small for a meaningful matrix: %d ops", totalOps)
		}
		stride := 1
		if testing.Short() {
			stride = 5
		}
		for _, mode := range []CrashMode{CrashDrop, CrashKeep, CrashTorn} {
			for at := 1; at <= totalOps; at += stride {
				t.Run(fmt.Sprintf("%s%s/op%02d", layout.name, mode, at), func(t *testing.T) {
					fsys := layout.newFS()
					st := mustOpen(t, fsys, "d", Options{})
					fsys.SetCrash(at, mode)
					var ref replayState
					inflight, crashed := workload(st, &ref, layout)
					if !crashed {
						t.Fatalf("crash point %d never fired", at)
					}
					st.Abort()
					fsys.Restart()

					st2, err := Open(fsys, "d", Options{})
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					var got replayState
					out, err := st2.Recover(got.restore, got.apply)
					if out == OutcomeCorrupt {
						t.Fatalf("crash (not corruption) produced corrupt verdict: %v", err)
					}
					if err != nil {
						t.Fatalf("Recover: %v", err)
					}
					want := ref.ops
					if !sameOps(got.ops, want) {
						if inflight == nil || !sameOps(got.ops, append(append([]Entry(nil), want...), *inflight)) {
							t.Fatalf("state after crash replay: got %d ops, acked %d (inflight present: %v)",
								len(got.ops), len(want), inflight != nil)
						}
					}
					// The recovered store must keep working: journal one
					// more op and recover again.
					if err := st2.Journal(9, []byte("post-crash")); err != nil {
						t.Fatalf("Journal after recovery: %v", err)
					}
					st2.Close()
					st3 := mustOpen(t, fsys, "d", Options{})
					var again replayState
					if out, err := st3.Recover(again.restore, again.apply); err != nil || out != OutcomeRecovered {
						t.Fatalf("second recovery = %v, %v", out, err)
					}
					if len(again.ops) != len(got.ops)+1 {
						t.Fatalf("second recovery: %d ops, want %d", len(again.ops), len(got.ops)+1)
					}
				})
			}
		}
	}
}
