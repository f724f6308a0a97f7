package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// ErrCrashed is returned by every MemFS operation once an injected
// crash has fired: from the store's point of view the process (and its
// disk) is gone until Restart.
var ErrCrashed = errors.New("wal: simulated crash")

// CrashMode selects what happens to bytes that were written but not yet
// synced when the injected crash fires — the torn-write model of the
// fault matrix.
type CrashMode uint8

const (
	// CrashDrop loses every unsynced byte: the page cache never reached
	// the platter.
	CrashDrop CrashMode = iota
	// CrashKeep persists every unsynced byte, including the write in
	// flight: the cache happened to flush just before the power cut.
	CrashKeep
	// CrashTorn persists earlier unsynced bytes but tears the write in
	// flight down the middle — the canonical torn frame.
	CrashTorn
)

// String implements fmt.Stringer.
func (m CrashMode) String() string {
	switch m {
	case CrashDrop:
		return "drop"
	case CrashKeep:
		return "keep"
	case CrashTorn:
		return "torn"
	default:
		return "unknown"
	}
}

// memFile models one file as two layers: bytes that have reached stable
// storage and bytes still sitting in the (volatile) write cache.
type memFile struct {
	durable  []byte
	buffered []byte
}

func (f *memFile) view() []byte {
	out := make([]byte, 0, len(f.durable)+len(f.buffered))
	out = append(out, f.durable...)
	return append(out, f.buffered...)
}

// MemFS is an in-memory FS with explicit durability semantics and
// injectable crashes, in the errfs tradition: every mutating operation
// (write, sync, rename, truncate, remove, create) is a numbered crash
// point, and SetCrash arms the filesystem to cut power at one of them.
// At the crash, unsynced bytes survive according to the configured
// CrashMode; afterwards every operation fails with ErrCrashed until
// Restart, which hands back the post-crash disk image.
//
// Simplifications, chosen to match how the store writes: renames and
// truncates are durable immediately (the store orders them after
// syncs), and unsynced data is a single contiguous tail per file (the
// store hands a whole group of frames to one Write and syncs it before
// acknowledging any of them, so CrashTorn tears a group anywhere — mid-
// frame or between frames — and replay keeps the complete frames before
// the tear).
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	ops     int
	crashAt int // fire when ops reaches this count; 0 = disarmed
	mode    CrashMode
	crashed bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// SetCrash arms a crash at the n-th mutating operation from now (n >=
// 1), with the given tear mode for unsynced bytes. Ops counts restart
// from zero.
func (m *MemFS) SetCrash(n int, mode CrashMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = 0
	m.crashAt = n
	m.mode = mode
}

// Ops returns the number of mutating operations performed since the
// filesystem was created or last armed/restarted.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the armed crash has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Restart clears the crashed state, presenting the post-crash disk
// image (durable bytes only) to subsequent operations — the disk a
// restarted process finds. The op counter resets and no crash is armed.
func (m *MemFS) Restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.crashAt = 0
	m.ops = 0
}

// FlipBit flips one bit of a file's durable content — media corruption,
// as opposed to a crash artifact. off addresses the byte, bit the bit
// within it.
func (m *MemFS) FlipBit(name string, off int, bit uint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fs.ErrNotExist
	}
	all := f.view()
	if off < 0 || off >= len(all) {
		return fmt.Errorf("wal: FlipBit offset %d out of range (%d bytes)", off, len(all))
	}
	if off < len(f.durable) {
		f.durable[off] ^= 1 << (bit % 8)
	} else {
		f.buffered[off-len(f.durable)] ^= 1 << (bit % 8)
	}
	return nil
}

// Size returns a file's current (cache-inclusive) length.
func (m *MemFS) Size(name string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, fs.ErrNotExist
	}
	return len(f.durable) + len(f.buffered), nil
}

// gate is the crash point shared by every mutating operation. It
// returns ErrCrashed when the filesystem is already dead, or fires the
// armed crash — in which case the triggering operation does not take
// effect (inflight carries the write being torn, nil for other ops).
// Callers hold m.mu.
func (m *MemFS) gate(target *memFile, inflight []byte) error {
	if m.crashed {
		return ErrCrashed
	}
	m.ops++
	if m.crashAt == 0 || m.ops < m.crashAt {
		return nil
	}
	// Power cut. Settle every file's cache per the tear mode.
	m.crashed = true
	if target != nil && len(inflight) > 0 {
		switch m.mode {
		case CrashKeep:
			target.buffered = append(target.buffered, inflight...)
		case CrashTorn:
			target.buffered = append(target.buffered, inflight[:len(inflight)/2]...)
		}
	}
	for _, f := range m.files {
		if m.mode == CrashDrop {
			f.buffered = nil
			continue
		}
		f.durable = append(f.durable, f.buffered...)
		f.buffered = nil
	}
	return ErrCrashed
}

// file returns (creating if asked) the named file. Callers hold m.mu.
func (m *MemFS) file(name string, create bool) (*memFile, error) {
	f, ok := m.files[name]
	if !ok {
		if !create {
			return nil, fs.ErrNotExist
		}
		f = &memFile{}
		m.files[name] = f
	}
	return f, nil
}

// MkdirAll implements FS (directories are implicit).
func (m *MemFS) MkdirAll(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, err := m.file(name, false)
	if err != nil {
		return nil, err
	}
	return f.view(), nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		// Creation mutates the directory: a crash point.
		if err := m.gate(nil, nil); err != nil {
			return nil, err
		}
		m.files[name] = &memFile{}
	} else if m.crashed {
		return nil, ErrCrashed
	}
	return &memHandle{fs: m, name: name}, nil
}

// OpenTrunc implements FS.
func (m *MemFS) OpenTrunc(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.gate(nil, nil); err != nil {
		return nil, err
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

// Rename implements FS. Completed renames are modeled durable (the
// store orders every rename after the temp file's sync and follows it
// with SyncDir; crashing at the rename op itself covers the
// not-yet-visible case).
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file(oldname, false)
	if err != nil {
		if m.crashed {
			return ErrCrashed
		}
		return err
	}
	if err := m.gate(nil, nil); err != nil {
		return err
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if m.crashed {
			return ErrCrashed
		}
		return fs.ErrNotExist
	}
	if err := m.gate(nil, nil); err != nil {
		return err
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS. Like renames, completed truncates are
// modeled durable.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file(name, false)
	if err != nil {
		if m.crashed {
			return ErrCrashed
		}
		return err
	}
	if err := m.gate(nil, nil); err != nil {
		return err
	}
	all := f.view()
	if int64(len(all)) > size {
		all = all[:size]
	}
	f.durable = all
	f.buffered = nil
	return nil
}

// SyncDir implements FS (renames are already durable; still a crash
// point).
func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gate(nil, nil)
}

// memHandle is an append handle into a MemFS file.
type memHandle struct {
	fs   *MemFS
	name string
}

// Write appends into the file's volatile cache.
func (h *memHandle) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok {
		if h.fs.crashed {
			return 0, ErrCrashed
		}
		return 0, fs.ErrNotExist
	}
	if err := h.fs.gate(f, b); err != nil {
		return 0, err
	}
	f.buffered = append(f.buffered, b...)
	return len(b), nil
}

// Sync promotes the file's cached bytes to stable storage.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok {
		if h.fs.crashed {
			return ErrCrashed
		}
		return fs.ErrNotExist
	}
	if err := h.fs.gate(nil, nil); err != nil {
		return err
	}
	f.durable = append(f.durable, f.buffered...)
	f.buffered = nil
	return nil
}

// Close implements File (handles carry no state to release).
func (h *memHandle) Close() error { return nil }
