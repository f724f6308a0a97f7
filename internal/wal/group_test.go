package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
)

// referenceFrame is the frame encoder as it stood before the in-place
// rewrite: body built apart, checksummed, appended. The format is frozen
// — stores written by it must keep recovering — so appendFrame is pinned
// against it byte for byte.
func referenceFrame(seq uint64, op uint8, payload []byte) []byte {
	dst := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	body := binary.BigEndian.AppendUint64(nil, seq)
	body = append(body, op)
	body = append(body, payload...)
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

func TestFrameEncodingUnchanged(t *testing.T) {
	var packed, want []byte
	for i, p := range [][]byte{nil, {}, []byte("x"), payload(7), make([]byte, 4096)} {
		seq, op := uint64(i)*1000+1, uint8(i+1)
		packed = appendFrame(packed, seq, op, p) // frames share one buffer, as in pending
		want = append(want, referenceFrame(seq, op, p)...)
	}
	if string(packed) != string(want) {
		t.Fatal("appendFrame diverges from the reference encoding")
	}
	const golden = "0000000c2b79ed91000000000000000703706172656e742d6672616d65"
	if got := hex.EncodeToString(appendFrame(nil, 7, 3, []byte("parent-frame"))); got != golden {
		t.Fatalf("frame = %s, want %s", got, golden)
	}
}

// TestParentWrittenStoreRecovers replays a store directory written by
// the commit before group commit (three journaled ops, a checkpoint, two
// more ops, then a kill): the format did not move, so it must recover to
// exactly that state and keep journaling — in either journal layout,
// and again after that journal is closed or killed.
func TestParentWrittenStoreRecovers(t *testing.T) {
	for _, layout := range memLayouts {
		fsys := layout.newFS()
		for name, image := range map[string]string{
			"d/checkpoint": "455344434b503031000000000000000300000007efca7d29696d6167654033",
			"d/wal.log":    "45534457414c303100000006eee56107000000000000000409706f73742d300000000655b29f23000000000000000509706f73742d31",
		} {
			b, err := hex.DecodeString(image)
			if err != nil {
				t.Fatal(err)
			}
			fsys.files[name] = &memFile{durable: b}
		}
		s := mustOpen(t, fsys, "d", Options{})
		var image string
		var got replayState
		out, err := s.Recover(func(img []byte) error { image = string(img); return nil }, got.apply)
		if err != nil || out != OutcomeRecovered {
			t.Fatalf("%sRecover = %v, %v", layout.name, out, err)
		}
		want := []Entry{{Op: 9, Payload: []byte("post-0")}, {Op: 9, Payload: []byte("post-1")}}
		if image != "image@3" || !sameOps(got.ops, want) {
			t.Fatalf("%srecovered image %q + %d ops, want image@3 + 2 ops", layout.name, image, len(got.ops))
		}
		if err := s.Journal(1, payload(0)); err != nil || s.Seq() != 6 {
			t.Fatalf("%sJournal after recovery = %v, seq %d; want seq 6", layout.name, err, s.Seq())
		}
		s.Abort()
		s = mustOpen(t, fsys, "d", Options{})
		if err := s.Journal(1, payload(1)); err != nil || s.Seq() != 7 {
			t.Fatalf("%sJournal after a kill = %v, seq %d; want seq 7", layout.name, err, s.Seq())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var again replayState
		if _, err := mustOpen(t, fsys, "d", Options{}).Recover(func([]byte) error { return nil }, again.apply); err != nil || len(again.ops) != 4 {
			t.Fatalf("%srecovery after a clean close = %d ops, %v; want 4", layout.name, len(again.ops), err)
		}
	}
}

// durableSeq returns the highest sequence number among the journal
// frames that have reached stable storage.
func durableSeq(t *testing.T, fsys *MemFS, name string) uint64 {
	t.Helper()
	fsys.mu.Lock()
	data := append([]byte(nil), fsys.files[name].durable...)
	fsys.mu.Unlock()
	_, _, last, err := scanJournal(data, 0)
	if err != nil {
		t.Errorf("durable journal does not scan: %v", err)
	}
	return last
}

// gatedFS wraps an FS so that every journal fsync first runs a hook,
// which may block — holding the flush "on disk" while the test looks at
// what the store lets through meanwhile — or return an error, failing
// the fsync without making a byte durable.
type gatedFS struct {
	FS
	mu   sync.Mutex
	hook func() error
}

func (g *gatedFS) onSync(fn func() error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = fn
}

func (g *gatedFS) OpenAppend(name string) (File, error) {
	f, err := g.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	File
	g *gatedFS
}

func (f *gatedFile) Sync() error {
	f.g.mu.Lock()
	hook := f.g.hook
	f.g.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestGroupCommitSharesFlushes holds the first flush on "disk" while
// seven more callers append: they must all ride the second flush, and
// nobody may return before a flush that covers its own frame.
func TestGroupCommitSharesFlushes(t *testing.T) {
	const callers = 8
	fsys := NewMemFS()
	gate := &gatedFS{FS: fsys}
	s := mustOpen(t, gate, "d", Options{})

	var flushes int
	entered := make(chan struct{}, callers)  // one token per flush, never blocks the hook
	appended := make(chan struct{}, callers) // one token per Append
	release := make(chan struct{})
	gate.onSync(func() error {
		flushes++ // flushes are serial: one leader at a time
		entered <- struct{}{}
		<-release
		return nil
	})

	var wg sync.WaitGroup
	caller := func(i int) {
		defer wg.Done()
		seq, err := s.Append(1, payload(i))
		appended <- struct{}{}
		if err != nil {
			t.Errorf("Append %d: %v", i, err)
			return
		}
		if err := s.Sync(seq); err != nil {
			t.Errorf("Sync(%d): %v", seq, err)
			return
		}
		if got := durableSeq(t, fsys, "d/wal.log"); got < seq {
			t.Errorf("Sync(%d) returned with only seq %d durable", seq, got)
		}
	}
	wg.Add(1)
	go caller(0)
	<-entered // the leader is inside its fsync, holding seq 1 only
	if got := durableSeq(t, fsys, "d/wal.log"); got != 0 {
		t.Fatalf("seq %d durable before any fsync returned", got)
	}
	wg.Add(callers - 1)
	for i := 1; i < callers; i++ {
		go caller(i)
	}
	for i := 0; i < callers; i++ { // every follower has appended behind the held flush
		<-appended
	}
	close(release)
	wg.Wait()
	if flushes != 2 {
		t.Fatalf("%d callers took %d flushes, want 2 (the held one, then one for everyone behind it)", callers, flushes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCoversPending: a checkpoint makes every appended entry
// durable through its image, so pending frames are dropped unwritten and
// their Sync returns without a journal flush.
func TestCheckpointCoversPending(t *testing.T) {
	fsys := NewMemFS()
	gate := &gatedFS{FS: fsys}
	s := mustOpen(t, gate, "d", Options{})
	var ref replayState
	var last uint64
	for i := 0; i < 3; i++ {
		seq, err := s.Append(1, payload(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.apply(1, payload(i)) //nolint:errcheck
		last = seq
	}
	if err := s.Checkpoint(ref.image()); err != nil {
		t.Fatal(err)
	}
	gate.onSync(func() error { return errors.New("no flush expected") })
	if err := s.Sync(last); err != nil {
		t.Fatalf("Sync after covering checkpoint: %v", err)
	}
	if sz, _ := fsys.Size("d/wal.log"); sz != len(logMagic) {
		t.Fatalf("journal holds %d bytes after checkpoint, want the bare header", sz)
	}
	s.Abort()
	var got replayState
	if out, err := mustOpen(t, fsys, "d", Options{}).Recover(got.restore, got.apply); err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v", out, err)
	}
	if !sameOps(got.ops, ref.ops) {
		t.Fatalf("recovered %d ops, want %d", len(got.ops), len(ref.ops))
	}
}

// TestCrashInCheckpointOverPendingFrames kills a checkpoint that covers
// a frame still pending (three flushed frames, one only appended) at each
// of its filesystem operations. Past the rename the journal on disk ends
// below the checkpoint's sequence number; the reopened store must prune
// it rather than append behind it, or the NEXT recovery finds a gap.
func TestCrashInCheckpointOverPendingFrames(t *testing.T) {
	for _, mode := range []CrashMode{CrashDrop, CrashKeep, CrashTorn} {
		for at := 1; ; at++ {
			fsys := NewMemFS()
			s := mustOpen(t, fsys, "d", Options{})
			var ref replayState
			for i := 0; i < 4; i++ {
				var err error
				if i < 3 {
					err = s.Journal(1, payload(i))
				} else {
					_, err = s.Append(1, payload(i))
				}
				if err != nil {
					t.Fatal(err)
				}
				ref.apply(1, payload(i)) //nolint:errcheck
			}
			fsys.SetCrash(at, mode)
			if err := s.Checkpoint(ref.image()); err == nil {
				break // the checkpoint has fewer than `at` operations
			}
			s.Abort()
			fsys.Restart()

			name := fmt.Sprintf("%s/op%d", mode, at)
			s2 := mustOpen(t, fsys, "d", Options{})
			var got replayState
			if out, err := s2.Recover(got.restore, got.apply); err != nil || out != OutcomeRecovered {
				t.Fatalf("%s: Recover = %v, %v", name, out, err)
			}
			// The fourth op was never acknowledged: all four, or the three.
			if n := len(got.ops); n < 3 || !sameOps(got.ops, ref.ops[:n]) {
				t.Fatalf("%s: recovered %d ops, want the 3 acknowledged or all 4", name, n)
			}
			if err := s2.Journal(9, []byte("post-crash")); err != nil {
				t.Fatalf("%s: Journal after recovery: %v", name, err)
			}
			s2.Abort()
			var again replayState
			if out, err := mustOpen(t, fsys, "d", Options{}).Recover(again.restore, again.apply); err != nil || out != OutcomeRecovered {
				t.Fatalf("%s: second recovery = %v, %v", name, out, err)
			}
			if len(again.ops) != len(got.ops)+1 {
				t.Fatalf("%s: second recovery: %d ops, want %d", name, len(again.ops), len(got.ops)+1)
			}
		}
	}
}

// TestFailedFlushFailStops: once a flush fails the journal's tail is
// unknown, so the store latches — every later mutation reports the first
// error — while entries flushed before the failure stay acknowledged and
// a reopen recovers a prefix that holds all of them.
func TestFailedFlushFailStops(t *testing.T) {
	fsys := NewMemFS()
	gate := &gatedFS{FS: fsys}
	s := mustOpen(t, gate, "d", Options{})
	if err := s.Journal(1, payload(0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	gate.onSync(func() error { return boom })
	if err := s.Journal(1, payload(1)); !errors.Is(err, boom) {
		t.Fatalf("Journal over a failing fsync = %v, want the injected error", err)
	}
	gate.onSync(nil) // the disk is fine again; the store must not be
	if _, err := s.Append(1, payload(2)); !errors.Is(err, boom) {
		t.Errorf("Append after failed flush = %v, want the first error", err)
	}
	if err := s.Journal(1, payload(2)); !errors.Is(err, boom) {
		t.Errorf("Journal after failed flush = %v, want the first error", err)
	}
	if err := s.Sync(2); !errors.Is(err, boom) {
		t.Errorf("Sync of the unflushed entry = %v, want the first error", err)
	}
	if err := s.Sync(1); err != nil {
		t.Errorf("Sync of an entry flushed before the failure = %v, want nil", err)
	}
	if err := s.Checkpoint([]byte("img")); !errors.Is(err, boom) {
		t.Errorf("Checkpoint after failed flush = %v, want the first error", err)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Errorf("Close of a failed store = %v, want the first error", err)
	}

	var got replayState
	if out, err := mustOpen(t, fsys, "d", Options{}).Recover(got.restore, got.apply); err != nil || out != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v", out, err)
	}
	// payload(1) was written but its fsync failed: present or absent.
	want := []Entry{{Op: 1, Payload: payload(0)}, {Op: 1, Payload: payload(1)}}
	if n := len(got.ops); n < 1 || n > 2 || !sameOps(got.ops, want[:n]) {
		t.Fatalf("recovered %d ops, want the acknowledged one and at most the failed one", n)
	}
}

// TestAbortFailsPendingSync: Abort drops what was never flushed, so a
// caller still waiting on it must hear ErrClosed, never success.
func TestAbortFailsPendingSync(t *testing.T) {
	s := mustOpen(t, NewMemFS(), "d", Options{})
	seq, err := s.Append(1, payload(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if err := s.Sync(seq); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Abort = %v, want ErrClosed", err)
	}
	if err := s.Sync(seq + 1); err == nil {
		t.Fatal("Sync past the last appended seq succeeded")
	}
}

// TestCrashMatrixConcurrent is TestCrashMatrix with three writers that
// follow the node's discipline — append and apply under one lock,
// checkpoint under it when due, sync outside it. Interleavings differ
// run to run; at every crash point and tear mode the recovered state
// must be a prefix of append order that holds every acknowledged op.
func TestCrashMatrixConcurrent(t *testing.T) {
	for _, layout := range memLayouts {
		crashMatrixConcurrent(t, layout)
	}
}

func crashMatrixConcurrent(t *testing.T, layout memLayout) {
	const writers, perWriter = 3, 8
	payload := func(w, i int) []byte { return layout.pay([]byte(fmt.Sprintf("w%d-%02d", w, i))) }
	// A checkpoint every dozen frames or so, whatever the payload scale.
	frame := int64(frameOverhead + len(payload(0, 0)))
	opts := Options{CheckpointBytes: 256 * frame / (frameOverhead + 5)}

	// run drives the writers until they finish or the crash stops them.
	// order is the append order (the reference state), acked the highest
	// sequence number whose Sync returned nil.
	run := func(s *Store) (order []Entry, acked uint64) {
		var nmu sync.Mutex // stands in for the node lock
		var ref replayState
		var wg sync.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					op, p := uint8(w+1), payload(w, i)
					nmu.Lock()
					seq, err := s.Append(op, p)
					if err == nil {
						ref.apply(op, p) //nolint:errcheck
						if s.CheckpointDue() {
							err = s.Checkpoint(ref.image())
						}
					}
					nmu.Unlock()
					if err != nil || s.Sync(seq) != nil {
						return
					}
					nmu.Lock()
					if seq > acked {
						acked = seq
					}
					nmu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return ref.ops, acked
	}

	// One writer at a time never shares a flush, so a serial dry run
	// bounds the number of crash points from above.
	probe := layout.newFS()
	s := mustOpen(t, probe, "d", opts)
	probe.SetCrash(0, CrashDrop)
	for i := 0; i < writers*perWriter; i++ {
		if err := s.Journal(1, payload(0, 0)); err != nil {
			t.Fatal(err)
		}
		if s.CheckpointDue() {
			if err := s.Checkpoint(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	totalOps := probe.Ops()
	s.Close()

	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, mode := range []CrashMode{CrashDrop, CrashKeep, CrashTorn} {
		for at := 1; at <= totalOps; at += stride {
			t.Run(fmt.Sprintf("%s%s/op%02d", layout.name, mode, at), func(t *testing.T) {
				fsys := layout.newFS()
				st := mustOpen(t, fsys, "d", opts)
				fsys.SetCrash(at, mode)
				order, acked := run(st)
				// Shared flushes can finish the script before op `at`;
				// the kill below then loses nothing that was acked.
				st.Abort()
				fsys.Restart()

				st2 := mustOpen(t, fsys, "d", opts)
				var got replayState
				out, err := st2.Recover(got.restore, got.apply)
				if out == OutcomeCorrupt || err != nil {
					t.Fatalf("Recover after a crash = %v, %v", out, err)
				}
				n := len(got.ops)
				if n > len(order) || !sameOps(got.ops, order[:n]) {
					t.Fatalf("recovered %d ops are not a prefix of the %d appended", n, len(order))
				}
				if uint64(n) < acked {
					t.Fatalf("recovered %d ops, but seq %d was acknowledged", n, acked)
				}
				if st2.Seq() != uint64(n) {
					t.Fatalf("Seq after recovery = %d, want %d", st2.Seq(), n)
				}
				// The recovered store must keep working: journal one more
				// op and recover again. A checkpoint that covered pending
				// frames leaves a journal that stops short of it; appending
				// behind those stale frames would show up here as a gap.
				if err := st2.Journal(9, []byte("post-crash")); err != nil {
					t.Fatalf("Journal after recovery: %v", err)
				}
				st2.Close()
				var again replayState
				if out, err := mustOpen(t, fsys, "d", opts).Recover(again.restore, again.apply); err != nil || out != OutcomeRecovered {
					t.Fatalf("second recovery = %v, %v", out, err)
				}
				if len(again.ops) != n+1 {
					t.Fatalf("second recovery: %d ops, want %d", len(again.ops), n+1)
				}
			})
		}
	}
}
