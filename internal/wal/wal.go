// Package wal gives a storage node crash-consistent local durability: a
// checksummed, length-prefixed write-ahead log of mutating operations
// plus periodic whole-state checkpoints written with the write-temp →
// fsync → atomic-rename discipline. A node that journals every mutation
// and acknowledges it only once its frame is flushed can be restarted
// after any crash and replay checkpoint+journal back to a state
// equivalent to what it had acknowledged — torn journal tails (the
// un-acknowledged group flush in flight at the crash) are detected by
// CRC framing and truncated, while checksum failures anywhere else are
// surfaced as ErrCorrupt so the caller refuses to start instead of
// trusting a damaged replay, with the files left as they are. Nothing is
// ever silently dropped: every recovery reports exactly one of fresh,
// recovered, or corrupt.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Sentinel errors.
var (
	// ErrCorrupt reports durable state that failed verification in a
	// way a crash cannot explain: a checksum mismatch on a complete
	// journal frame or on the checkpoint, a sequence gap, or a mangled
	// header. The local state must not be trusted, and the files are the
	// only copy of it: they are left untouched for salvage.
	ErrCorrupt = errors.New("wal: durable state corrupt")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("wal: store closed")
)

// Outcome classifies what Recover found on disk.
type Outcome uint8

const (
	// OutcomeFresh: no store files found — a brand-new store, or one
	// whose directory was lost.
	OutcomeFresh Outcome = iota
	// OutcomeRecovered: the store found its own files, verified them and
	// replayed whatever they hold (possibly nothing).
	OutcomeRecovered
	// OutcomeCorrupt: durable state failed verification; the store
	// refuses writes.
	OutcomeCorrupt
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeFresh:
		return "fresh"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeCorrupt:
		return "corrupt"
	default:
		return "unknown"
	}
}

// Options tunes a store.
type Options struct {
	// CheckpointBytes is the journal growth after which CheckpointDue
	// reports true (default 1 MiB). Smaller values trade checkpoint
	// write amplification for faster recovery.
	CheckpointBytes int64
}

// Entry is one journaled operation.
type Entry struct {
	Seq     uint64
	Op      uint8
	Payload []byte
}

// File layout within the store directory.
const (
	logName  = "wal.log"
	ckptName = "checkpoint"
	tmpName  = "checkpoint.tmp"
)

var (
	logMagic  = []byte("ESDWAL01")
	ckptMagic = []byte("ESDCKP01")
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

// frame layout: u32 payload length | u32 CRC32-C | u64 seq | u8 op |
// payload. The CRC covers seq, op and payload, so a frame vouches for
// its own identity as well as its bytes.
const frameOverhead = 4 + 4 + 8 + 1

// appendFrame appends one encoded journal frame to dst. The body is
// encoded straight into dst and checksummed in place; the CRC slot is
// patched afterwards.
func appendFrame(dst []byte, seq uint64, op uint8, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0) // CRC, patched below
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, op)
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Update(0, crcTable, dst[start+8:]))
	return dst
}

// errTorn reports an incomplete trailing frame — the write that was in
// flight when the process died. It is an internal verdict: replay
// truncates the tail instead of failing.
var errTorn = errors.New("wal: torn frame")

// decodeFrame decodes the first frame in b, returning the entry and the
// number of bytes consumed. A frame that runs past the end of b is
// errTorn; a complete frame whose checksum does not match is ErrCorrupt.
func decodeFrame(b []byte) (Entry, int, error) {
	if len(b) < 4 {
		return Entry{}, 0, errTorn
	}
	plen := int(binary.BigEndian.Uint32(b))
	total := frameOverhead + plen
	if plen < 0 || total < 0 || total > len(b) {
		return Entry{}, 0, errTorn
	}
	crc := binary.BigEndian.Uint32(b[4:])
	body := b[8:total]
	if crc32.Checksum(body, crcTable) != crc {
		return Entry{}, 0, fmt.Errorf("%w: journal frame checksum mismatch", ErrCorrupt)
	}
	return Entry{
		Seq:     binary.BigEndian.Uint64(body),
		Op:      body[8],
		Payload: body[9:],
	}, total, nil
}

// scanJournal walks a journal image: it verifies the header, decodes
// frames, and separates the three possible verdicts — entries to
// replay (seq beyond ckptSeq, contiguous), a torn tail to truncate at
// goodLen, or corruption. lastSeq is the highest sequence seen (ckptSeq
// when the journal holds nothing newer).
func scanJournal(data []byte, ckptSeq uint64) (entries []Entry, goodLen int, lastSeq uint64, err error) {
	lastSeq = ckptSeq
	if len(data) == 0 {
		return nil, 0, lastSeq, nil
	}
	if len(data) < len(logMagic) {
		// Crash between file creation and the header write.
		return nil, 0, lastSeq, nil
	}
	if string(data[:len(logMagic)]) != string(logMagic) {
		return nil, 0, lastSeq, fmt.Errorf("%w: journal header %q", ErrCorrupt, data[:len(logMagic)])
	}
	off := len(logMagic)
	var prev uint64
	first := true
	for off < len(data) {
		e, n, derr := decodeFrame(data[off:])
		if errors.Is(derr, errTorn) {
			break
		}
		if derr != nil {
			return nil, 0, lastSeq, fmt.Errorf("%w (offset %d)", derr, off)
		}
		switch {
		case first && e.Seq > ckptSeq+1:
			// The journal starts past what the checkpoint covers:
			// entries are missing, not torn.
			return nil, 0, lastSeq, fmt.Errorf("%w: journal gap: first seq %d after checkpoint seq %d", ErrCorrupt, e.Seq, ckptSeq)
		case !first && e.Seq != prev+1:
			return nil, 0, lastSeq, fmt.Errorf("%w: journal gap: seq %d after %d", ErrCorrupt, e.Seq, prev)
		}
		first = false
		prev = e.Seq
		if e.Seq > ckptSeq {
			e.Payload = append([]byte(nil), e.Payload...)
			entries = append(entries, e)
		}
		off += n
	}
	if prev > lastSeq {
		lastSeq = prev
	}
	return entries, off, lastSeq, nil
}

// encodeCheckpoint builds the checkpoint file image: magic | u64 seq |
// u32 image length | u32 CRC32-C over seq+image | image.
func encodeCheckpoint(seq uint64, image []byte) []byte {
	out := make([]byte, 0, len(ckptMagic)+16+len(image))
	out = append(out, ckptMagic...)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.BigEndian.AppendUint32(out, uint32(len(image)))
	crc := crc32.Checksum(out[len(ckptMagic):len(ckptMagic)+8], crcTable)
	crc = crc32.Update(crc, crcTable, image)
	out = binary.BigEndian.AppendUint32(out, crc)
	return append(out, image...)
}

// decodeCheckpoint verifies and unpacks a checkpoint image. Any
// mismatch is ErrCorrupt: the checkpoint was written with
// temp+fsync+rename, so a crash can only leave the previous intact
// checkpoint (or none), never a partial one.
func decodeCheckpoint(data []byte) (seq uint64, image []byte, err error) {
	hdr := len(ckptMagic) + 16
	if len(data) < hdr {
		return 0, nil, fmt.Errorf("%w: checkpoint truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return 0, nil, fmt.Errorf("%w: checkpoint header %q", ErrCorrupt, data[:len(ckptMagic)])
	}
	seq = binary.BigEndian.Uint64(data[len(ckptMagic):])
	imgLen := int(binary.BigEndian.Uint32(data[len(ckptMagic)+8:]))
	crc := binary.BigEndian.Uint32(data[len(ckptMagic)+12:])
	if imgLen < 0 || hdr+imgLen != len(data) {
		return 0, nil, fmt.Errorf("%w: checkpoint length %d, want %d", ErrCorrupt, len(data), hdr+imgLen)
	}
	image = data[hdr:]
	want := crc32.Checksum(data[len(ckptMagic):len(ckptMagic)+8], crcTable)
	want = crc32.Update(want, crcTable, image)
	if crc != want {
		return 0, nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return seq, image, nil
}

// Store is one node's durable backing: a journal of operations plus the
// latest checkpoint. All methods are safe for concurrent use; journal
// order is the order of Append calls, so callers serializing appends
// with their state mutations (e.g. under the node lock) get a journal
// that replays to the same state.
//
// Journaling is split in two so that no caller lock need be held across
// a disk flush. Append encodes a frame into an in-memory pending buffer
// and hands back its sequence number; Sync(seq) blocks until that frame
// is durable. Concurrent Sync callers group-commit: the first one
// becomes the leader, swaps the pending buffer out and issues ONE Write
// and ONE fsync for everything appended so far, outside the store
// mutex, then wakes every waiter the flush covered. Frames appended
// meanwhile form the next group. There is no timer and no batch knob —
// a group is whatever accumulated while the previous flush was on disk.
//
// A failed flush leaves the journal's tail unknown, so it latches the
// store into a failed state: every later Append, Sync, Journal,
// and Checkpoint returns the first error, wrapped, and the store
// must be closed and reopened (which re-verifies what reached disk).
type Store struct {
	fsys FS
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // signalled when a flush, checkpoint, close or abort ends
	log  File

	seq       uint64 // last appended sequence number
	syncedSeq uint64 // every seq <= syncedSeq is durable (flushed or checkpointed)
	ckptSeq   uint64 // sequence covered by the on-disk checkpoint
	logBytes  int64  // journal length including pending frames

	// pending holds the encoded frames (syncedSeq, seq] — or, while a
	// flush is on disk, those appended after the leader swapped the
	// buffer out. spare is the buffer the previous flush used, recycled
	// so steady-state appends do not allocate.
	pending       []byte
	pendingFrames int
	spare         []byte
	flushing      bool  // a leader is writing outside mu
	failed        error // first flush error; sticky
	closed        bool

	// Recovery material captured at Open, consumed by Recover.
	corrupt   string // why verification failed ("" = clean)
	image     []byte
	entries   []Entry
	recovered bool

	met walMetrics // set by Instrument before traffic; nil-safe
}

// Open opens (creating if necessary) the store in dir on fsys and
// verifies its durable state. Corruption does not fail Open: the store
// comes back in a write-refusing corrupt state that Recover reports,
// with its files untouched — so the caller, not a disk error path,
// decides what to do. Open fails only on real I/O errors.
func Open(fsys FS, dir string, opts Options) (*Store, error) {
	if opts.CheckpointBytes <= 0 {
		opts.CheckpointBytes = 1 << 20
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	s := &Store{fsys: fsys, dir: dir, opts: opts}
	s.cond = sync.NewCond(&s.mu)
	// A leftover temp file is a checkpoint whose rename never happened;
	// it holds nothing the journal cannot replay.
	if err := s.fsys.Remove(s.path(tmpName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: removing stale checkpoint temp: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if s.corrupt != "" {
		return s, nil
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// corruptDetail stores a verification failure without the ErrCorrupt
// prefix — the sentinel is re-attached wherever the verdict surfaces.
func corruptDetail(err error) string {
	return strings.TrimPrefix(err.Error(), ErrCorrupt.Error()+": ")
}

// load verifies checkpoint and journal, capturing replay material or a
// corruption verdict.
func (s *Store) load() error {
	ckpt, err := s.fsys.ReadFile(s.path(ckptName))
	switch {
	case err == nil:
		seq, image, derr := decodeCheckpoint(ckpt)
		if derr != nil {
			s.corrupt = corruptDetail(derr)
			return nil
		}
		s.image = append([]byte(nil), image...)
		s.ckptSeq = seq
		s.seq = seq
		s.syncedSeq = seq
		s.recovered = true
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("wal: reading checkpoint: %w", err)
	}

	data, err := s.fsys.ReadFile(s.path(logName))
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return fmt.Errorf("wal: reading journal: %w", err)
	}
	entries, goodLen, lastSeq, serr := scanJournal(data, s.ckptSeq)
	if serr != nil {
		s.corrupt = corruptDetail(serr)
		return nil
	}
	switch {
	case len(entries) == 0 && goodLen > len(logMagic):
		// Every frame is at or below the checkpoint: a crash between a
		// checkpoint's rename and its journal prune. The stale frames may
		// stop short of ckptSeq (the checkpoint covered frames that were
		// still pending, never written), so appending ckptSeq+1 behind
		// them would leave a gap. Finish the prune instead.
		goodLen = len(logMagic)
		if err := s.fsys.Truncate(s.path(logName), int64(goodLen)); err != nil {
			return fmt.Errorf("wal: finishing interrupted journal prune: %w", err)
		}
	case goodLen < len(data):
		// Torn tail: the write in flight at the crash. It was never
		// acknowledged, so cutting it is recovery, not loss.
		if err := s.fsys.Truncate(s.path(logName), int64(goodLen)); err != nil {
			return fmt.Errorf("wal: truncating torn journal tail: %w", err)
		}
	}
	s.entries = entries
	s.logBytes = int64(goodLen)
	s.seq = lastSeq
	s.syncedSeq = lastSeq
	if goodLen >= len(logMagic) {
		// The store's own header: this directory has held a store
		// before, even if it never journaled a frame.
		s.recovered = true
	}
	return nil
}

// openLog opens the append handle, stamping the header on a fresh
// journal.
func (s *Store) openLog() error {
	f, err := s.fsys.OpenAppend(s.path(logName))
	if err != nil {
		return fmt.Errorf("wal: opening journal: %w", err)
	}
	s.log = f
	if s.logBytes == 0 {
		if _, err := f.Write(logMagic); err != nil {
			return fmt.Errorf("wal: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing journal header: %w", err)
		}
		s.met.fsyncs.Inc()
		s.logBytes = int64(len(logMagic))
	}
	return nil
}

// Recover reports what Open found and replays it in order: restore is
// called first with the checkpoint image (if any), then apply once per
// journal entry past the checkpoint. On OutcomeCorrupt neither callback
// runs and the error (wrapping ErrCorrupt) says why; the store keeps
// refusing writes. The replay material is consumed: a second call
// reports OutcomeFresh.
func (s *Store) Recover(restore func(image []byte) error, apply func(op uint8, payload []byte) error) (Outcome, error) {
	s.mu.Lock()
	corrupt, image, entries, recovered := s.corrupt, s.image, s.entries, s.recovered
	s.image, s.entries, s.recovered = nil, nil, false
	s.mu.Unlock()
	if corrupt != "" {
		s.met.corruptions.Inc()
		return OutcomeCorrupt, fmt.Errorf("%w: %s", ErrCorrupt, corrupt)
	}
	if !recovered {
		return OutcomeFresh, nil
	}
	s.met.replays.Inc()
	s.met.replayEntries.Add(uint64(len(entries)))
	if image != nil {
		if err := restore(image); err != nil {
			return OutcomeRecovered, fmt.Errorf("wal: restoring checkpoint: %w", err)
		}
	}
	for _, e := range entries {
		if err := apply(e.Op, e.Payload); err != nil {
			return OutcomeRecovered, fmt.Errorf("wal: replaying journal seq %d (op %d): %w", e.Seq, e.Op, err)
		}
	}
	return OutcomeRecovered, nil
}

// usableLocked reports a store that is gone for good: closed, or
// latched by a failed flush. Callers hold s.mu.
func (s *Store) usableLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.failed != nil:
		return fmt.Errorf("wal: store failed, reopen required: %w", s.failed)
	}
	return nil
}

// writableLocked additionally refuses a corrupt store. Callers hold s.mu.
func (s *Store) writableLocked() error {
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.corrupt != "" {
		return fmt.Errorf("%w: %s", ErrCorrupt, s.corrupt)
	}
	return nil
}

// waitFlushLocked blocks until no group flush is on disk — the fence
// Checkpoint, Close and Abort take before touching the journal
// file. Callers hold s.mu (released while waiting).
func (s *Store) waitFlushLocked() {
	for s.flushing {
		s.cond.Wait()
	}
}

// Append encodes one operation into the pending buffer and returns its
// sequence number. No syscall is made: the entry is NOT durable, and
// must not be acknowledged, until Sync(seq) returns nil. Append order is
// journal order.
func (s *Store) Append(op uint8, payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	s.seq++
	before := len(s.pending)
	s.pending = appendFrame(s.pending, s.seq, op, payload)
	s.pendingFrames++
	s.logBytes += int64(len(s.pending) - before)
	s.met.appends.Inc()
	return s.seq, nil
}

// Sync blocks until every entry up to seq is durable (written and
// fsynced), or reports why it never will be.
// Callers that find a flush already on disk wait for it; the first one
// that does not becomes the leader for everything appended so far, so N
// concurrent callers share far fewer than N flushes. An entry a
// checkpoint has covered is durable without a flush.
func (s *Store) Sync(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.met.on {
		return s.syncLocked(seq)
	}
	start := time.Now()
	err := s.syncLocked(seq)
	s.met.syncWaitNS.Observe(time.Since(start).Nanoseconds())
	return err
}

func (s *Store) syncLocked(seq uint64) error {
	for seq > s.syncedSeq {
		if seq > s.seq { // never appended
			return fmt.Errorf("wal: Sync(%d) past the last appended seq %d", seq, s.seq)
		}
		if err := s.writableLocked(); err != nil {
			return err
		}
		if s.flushing {
			s.cond.Wait()
			continue
		}
		s.flushLocked()
	}
	return nil
}

// flushLocked makes the caller the group's leader: it takes the pending
// buffer, releases s.mu for the Write and the fsync, and on return
// (s.mu held again) has either advanced syncedSeq past every frame it
// took or latched the store failed. Callers hold s.mu, have checked
// writableLocked and that no flush is on disk; pending is then non-empty
// (it holds exactly the frames past syncedSeq).
func (s *Store) flushLocked() {
	buf, frames, upTo := s.pending, s.pendingFrames, s.seq
	s.pending, s.pendingFrames = s.spare[:0], 0
	s.flushing = true
	s.mu.Unlock()
	err := s.writeGroup(buf)
	s.mu.Lock()
	s.flushing = false
	s.spare = buf[:0]
	if err != nil {
		s.failed = err
	} else {
		s.syncedSeq = upTo
		s.met.groupSize.Observe(int64(frames))
	}
	s.cond.Broadcast()
}

// writeGroup appends one group of frames to the journal file and makes
// it durable. Only the flush leader calls it, and everything that swaps
// or closes s.log fences on the flush first, so s.log is stable here
// without s.mu.
func (s *Store) writeGroup(buf []byte) error {
	if _, err := s.log.Write(buf); err != nil {
		return fmt.Errorf("wal: journal append: %w", err)
	}
	var start time.Time
	if s.met.on {
		start = time.Now()
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal: journal sync: %w", err)
	}
	if s.met.on {
		s.met.fsyncs.Inc()
		s.met.fsyncNS.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Journal durably appends one operation: Append followed by Sync. On
// return (without error) the entry has been written and fsynced, so the
// caller may acknowledge the mutation. Callers
// that hold a lock they would rather not keep across a disk flush use
// the two halves apart.
func (s *Store) Journal(op uint8, payload []byte) error {
	seq, err := s.Append(op, payload)
	if err != nil {
		return err
	}
	return s.Sync(seq)
}

// CheckpointDue reports whether the journal has grown past the
// checkpoint cadence.
func (s *Store) CheckpointDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes-int64(len(logMagic)) >= s.opts.CheckpointBytes
}

// Checkpoint atomically persists a full state image covering everything
// appended so far and prunes the journal. The sequence is write temp →
// fsync → rename → sync dir → truncate journal; a crash at any point
// leaves either the old checkpoint plus the flushed journal or the new
// checkpoint plus a journal of stale frames only, which the next Open
// prunes. The image must reflect every appended entry (callers
// serialize Append with their state and snapshot under the same lock),
// so on success every appended seq is durable: frames still pending are
// dropped unwritten and their Sync waiters return at once.
func (s *Store) Checkpoint(image []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitFlushLocked()
	if err := s.writableLocked(); err != nil {
		return err
	}
	var ckptStart time.Time
	if s.met.on {
		ckptStart = time.Now()
	}
	f, err := s.fsys.OpenTrunc(s.path(tmpName))
	if err != nil {
		return fmt.Errorf("wal: checkpoint temp: %w", err)
	}
	if _, err := f.Write(encodeCheckpoint(s.seq, image)); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := s.fsys.Rename(s.path(tmpName), s.path(ckptName)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	if err := s.fsys.Truncate(s.path(logName), int64(len(logMagic))); err != nil {
		return fmt.Errorf("wal: pruning journal: %w", err)
	}
	s.ckptSeq = s.seq
	s.logBytes = int64(len(logMagic))
	s.coverPendingLocked()
	if s.met.on {
		s.met.checkpoints.Inc()
		s.met.fsyncs.Add(2) // checkpoint file sync + dir sync
		s.met.checkpointNS.Observe(time.Since(ckptStart).Nanoseconds())
	}
	return nil
}

// coverPendingLocked records that everything appended is durable by
// other means than a group flush (a checkpoint image, or Close's final
// flush): the pending frames are retired as one group and their Sync
// waiters released. Callers hold s.mu with no flush on disk.
func (s *Store) coverPendingLocked() {
	s.syncedSeq = s.seq
	if s.pendingFrames > 0 {
		s.met.groupSize.Observe(int64(s.pendingFrames))
	}
	s.pending, s.pendingFrames = s.pending[:0], 0
	s.cond.Broadcast()
}

// Seq returns the last appended sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close flushes whatever is still pending and closes the store. A store
// latched by a failed flush closes its file and reports that failure:
// its tail was never made durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitFlushLocked()
	if s.closed {
		return nil
	}
	s.closed = true
	defer s.cond.Broadcast()
	if s.log == nil {
		return nil
	}
	err := s.failed
	if err == nil && len(s.pending) > 0 {
		_, err = s.log.Write(s.pending)
	}
	if err == nil {
		// A graceful shutdown leaves nothing in the page cache.
		if err = s.log.Sync(); err == nil {
			s.coverPendingLocked()
		}
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}

// Abort closes the store without flushing — the in-process equivalent
// of a crash, used when a node is killed rather than shut down. Durable
// state is whatever group flushes already made durable; a flush on disk
// is allowed to finish (the file must not be closed under it), pending
// frames are dropped and their Sync waiters get ErrClosed.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitFlushLocked()
	if s.closed {
		return
	}
	s.closed = true
	s.pending, s.pendingFrames = nil, 0
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	s.cond.Broadcast()
}
