package wal

import (
	"io"
	"os"
)

// FS is the narrow filesystem surface the store needs. Factoring it out
// serves two masters: production runs on OSFS (real files, real
// fsyncs), and the crash-consistency matrix runs on MemFS, which can
// cut the power at any write/sync/rename boundary and replay the
// resulting disk image. Every path handed to an FS is store-internal
// (dir-relative joins are done by the caller).
type FS interface {
	// MkdirAll creates the store directory (and parents) if absent.
	MkdirAll(dir string) error
	// ReadFile returns the current contents of a file, or an error
	// satisfying os.IsNotExist when it does not exist.
	ReadFile(name string) ([]byte, error)
	// OpenAppend opens the journal for appending, creating it if
	// absent. Writes go at the file's length at open: the store cuts
	// any zero tail before it opens the journal. The handle may
	// preallocate zeros past what it wrote; a clean Close of the store
	// cuts them again.
	OpenAppend(name string) (File, error)
	// OpenTrunc opens a file for writing, truncating any prior content
	// — the first step of the write-temp → fsync → rename discipline.
	OpenTrunc(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file (os.IsNotExist errors are tolerated by the
	// store).
	Remove(name string) error
	// Truncate cuts a file to the given size — how a torn journal tail
	// is discarded after replay, and how a checkpoint prunes the
	// journal.
	Truncate(name string, size int64) error
	// SyncDir flushes directory metadata so a completed rename survives
	// power loss.
	SyncDir(dir string) error
}

// File is an open, append-position file handle.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage; data is durable —
	// and an append may be acknowledged — only after Sync returns.
	Sync() error
	Close() error
}

// journalExtent is how far a journal handle preallocates at a time:
// one checkpoint cycle (the default CheckpointBytes is 1 MiB) with room
// to spare, so a node's journal is extended about once per checkpoint.
// A multiple of tearSector.
const journalExtent = 4 << 20

// OSFS is the production FS: the real filesystem via package os.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// OpenAppend implements FS with a journal handle that preallocates its
// file in extents, so a flush within the extent commits no size change.
func (OSFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journalFile{f: f, end: st.Size(), size: st.Size()}, nil
}

// journalFile writes each group at its own logical end, inside a
// preallocated extent of zeros. While every written byte lies inside
// the extent the file's size is already on disk, so Sync's fdatasync
// flushes the data without committing a size update. Where the
// filesystem refuses fallocate (and on platforms without it) a write
// runs past the extent and grows the file, and fdatasync commits the
// new size with the data, as fsync would.
type journalFile struct {
	f    *os.File
	end  int64 // logical end: where the next write goes
	size int64 // file size, zeros past end included
}

// Write implements File.
func (j *journalFile) Write(p []byte) (int, error) {
	if need := j.end + int64(len(p)); need > j.size {
		ext := (need + journalExtent - 1) / journalExtent * journalExtent
		if fallocate(j.f, j.size, ext-j.size) == nil {
			j.size = ext
		}
	}
	n, err := j.f.WriteAt(p, j.end)
	j.end += int64(n)
	j.size = max(j.size, j.end)
	return n, err
}

// Sync implements File.
func (j *journalFile) Sync() error { return fdatasync(j.f) }

// Close implements File. It leaves any preallocated zeros in place, as
// a crash would: the store cuts them when it closes cleanly.
func (j *journalFile) Close() error { return j.f.Close() }

// OpenTrunc implements FS.
func (OSFS) OpenTrunc(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Directory fsync is best effort: some
// filesystems reject it (EINVAL), and the store's recovery path
// tolerates a lost rename (the old checkpoint plus a longer journal
// replay to the same state), so the error is not propagated.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync() //nolint:errcheck // best effort, see above
	return d.Close()
}
