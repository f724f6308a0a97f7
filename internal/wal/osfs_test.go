package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func fileSize(t *testing.T, name string) int64 {
	t.Helper()
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestOSFSJournalPreallocates: on Linux the journal grows in whole
// extents of zeros, across more than one extent, and a clean Close cuts
// them so the file ends at its last frame.
func TestOSFSJournalPreallocates(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, logName)
	s := mustOpen(t, OSFS{}, dir, Options{CheckpointBytes: 1 << 40})
	big := bytes.Repeat([]byte{0x5a}, 1<<20)
	var ref replayState
	for i := 0; i < 5; i++ {
		p := append(payload(i), big...)
		if err := s.Journal(1, p); err != nil {
			t.Fatal(err)
		}
		ref.apply(1, p) //nolint:errcheck
	}
	logical := int64(len(logMagic)) + 5*int64(frameOverhead+len(payload(0))+len(big))
	want := int64(2 * journalExtent)
	if runtime.GOOS != "linux" {
		want = logical
	}
	if got := fileSize(t, wal); got != want {
		t.Fatalf("live journal is %d bytes, want %d (%d logical)", got, want, logical)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, wal); got != logical {
		t.Fatalf("closed journal is %d bytes, want its %d logical bytes", got, logical)
	}
	var got replayState
	if out, err := mustOpen(t, OSFS{}, dir, Options{}).Recover(got.restore, got.apply); err != nil || out != OutcomeRecovered || !sameOps(got.ops, ref.ops) {
		t.Fatalf("Recover = %v, %v, %d ops; want %d", out, err, len(got.ops), len(ref.ops))
	}
}

// TestOSFSCrashedJournalRecovers copies a live journal — synced frames
// in front, preallocated zeros behind, what a power cut leaves — into a
// fresh directory, with and without a torn last group: recovery replays
// every synced frame, cuts the rest, and journals on.
func TestOSFSCrashedJournalRecovers(t *testing.T) {
	live := t.TempDir()
	s := mustOpen(t, OSFS{}, live, Options{})
	var ref replayState
	for i := 0; i < 6; i++ {
		p := bytes.Repeat(payload(i), 30)
		if err := s.Journal(uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
		ref.apply(uint8(i+1), p) //nolint:errcheck
	}
	image, err := os.ReadFile(filepath.Join(live, logName))
	if err != nil {
		t.Fatal(err)
	}
	s.Abort()
	end := int(s.logBytes)
	tornFrame := appendFrame(nil, 7, 7, bytes.Repeat([]byte{'t'}, 900))
	torn := append([]byte(nil), image...)
	cut := (end+tearSector)/tearSector*tearSector - end // whole sectors only
	copy(torn[end:], tornFrame[:cut])

	for name, img := range map[string][]byte{"zero tail": image, "torn group": torn} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, OSFS{}, dir, Options{})
		var got replayState
		if out, err := s.Recover(got.restore, got.apply); err != nil || out != OutcomeRecovered || !sameOps(got.ops, ref.ops) {
			t.Fatalf("%s: Recover = %v, %v, %d ops; want %d", name, out, err, len(got.ops), len(ref.ops))
		}
		if err := s.Journal(9, payload(9)); err != nil {
			t.Fatalf("%s: Journal after recovery: %v", name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var again replayState
		if _, err := mustOpen(t, OSFS{}, dir, Options{}).Recover(again.restore, again.apply); err != nil || len(again.ops) != len(ref.ops)+1 {
			t.Fatalf("%s: second recovery = %d ops, %v; want %d", name, len(again.ops), err, len(ref.ops)+1)
		}
	}
}

// countingFS passes every call through to OSFS; its journal handles
// count the bytes written and the Syncs, and it remembers each file's
// last synced length, so cutToSynced can leave what a power cut would.
// It has the shape of the end-to-end benchmark's tracing FS, which
// counts flushes and bytes at exactly these calls: the journal must flow
// only through OpenAppend, Write and Sync for such a wrapper to see it.
type countingFS struct {
	OSFS
	mu      sync.Mutex
	syncs   int64
	written int64
	files   map[string]*countedLen
}

type countedLen struct{ written, synced int64 }

func (c *countingFS) OpenAppend(name string) (File, error) {
	var size int64
	if st, err := os.Stat(name); err == nil {
		size = st.Size()
	}
	f, err := c.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l := &countedLen{written: size, synced: size}
	c.files[name] = l
	return &countedFile{File: f, c: c, len: l}, nil
}

func (c *countingFS) Truncate(name string, size int64) error {
	err := c.OSFS.Truncate(name, size)
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.files[name]; ok && err == nil {
		l.written, l.synced = size, size
	}
	return err
}

func (c *countingFS) cutToSynced() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, l := range c.files {
		if err := os.Truncate(name, l.synced); err != nil {
			return err
		}
	}
	return nil
}

type countedFile struct {
	File
	c   *countingFS
	len *countedLen
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	f.c.written += int64(n)
	f.len.written += int64(n)
	return n, err
}

func (f *countedFile) Sync() error {
	err := f.File.Sync()
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if err == nil {
		f.c.syncs++
		f.len.synced = f.len.written
	}
	return err
}

// TestOSFSJournalBehindWrapperSurvivesPrunes drives a store through
// several checkpoint prunes behind a counting wrapper, cuts the journal
// to its last synced length as the wrapper saw it, and recovers every
// acknowledged op. A prune that reset the handle's write offset behind
// the wrapper's back would write the first frame after it at a stale
// offset — a hole of zeros the wrapper never saw — and lose it here.
func TestOSFSJournalBehindWrapperSurvivesPrunes(t *testing.T) {
	dir := t.TempDir()
	fsys := &countingFS{files: make(map[string]*countedLen)}
	s := mustOpen(t, fsys, dir, Options{CheckpointBytes: 600})
	var ref replayState
	checkpoints := 0
	for i := 0; i < 60; i++ {
		p := bytes.Repeat(payload(i), 4)
		if err := s.Journal(1, p); err != nil {
			t.Fatal(err)
		}
		ref.apply(1, p) //nolint:errcheck
		if s.CheckpointDue() && i < 50 {
			if err := s.Checkpoint(ref.image()); err != nil {
				t.Fatal(err)
			}
			checkpoints++
		}
	}
	if checkpoints < 3 {
		t.Fatalf("%d checkpoint prunes, want at least 3", checkpoints)
	}
	syncs, written := fsys.syncs, fsys.written
	if syncs < 60 || written < 60*int64(frameOverhead+4*len(payload(0))) {
		t.Fatalf("the wrapper saw %d Syncs and %d bytes for 60 journaled ops", syncs, written)
	}
	s.Abort()
	if err := fsys.cutToSynced(); err != nil {
		t.Fatal(err)
	}
	var got replayState
	out, err := mustOpen(t, OSFS{}, dir, Options{}).Recover(got.restore, got.apply)
	if err != nil || out != OutcomeRecovered || !sameOps(got.ops, ref.ops) {
		t.Fatalf("Recover after cutting to the synced length = %v, %v, %d ops; want %d", out, err, len(got.ops), len(ref.ops))
	}
}
