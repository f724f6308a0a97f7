package sdds

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wordindex"
)

// Store is the durable backing a node journals into — the narrow
// surface of *wal.Store the node needs. A storeless node is ephemeral:
// every restart is a total state loss. With a store attached, every
// mutating handler journals what it applies and acknowledges only once
// the journal frame is flushed, so a restarted node replays
// checkpoint+journal back to its last acknowledged state.
type Store interface {
	// Recover replays durable state: restore with the checkpoint image,
	// then apply per journal entry. See wal.Store.Recover.
	Recover(restore func(image []byte) error, apply func(op uint8, payload []byte) error) (wal.Outcome, error)
	// Append queues one operation for the journal (no I/O) and returns
	// its sequence number; the put_batch handler, every data write's,
	// calls it under the node lock and Syncs after releasing it.
	Append(op uint8, payload []byte) (seq uint64, err error)
	// Sync blocks until seq is durable, sharing one flush among every
	// concurrent caller. Nothing is acknowledged before it returns nil.
	Sync(seq uint64) error
	// Journal is Append followed by Sync, for the callers that keep the
	// node lock across their flush: the migration phases of a split or
	// merge, which are rare.
	Journal(op uint8, payload []byte) error
	// CheckpointDue reports that the journal has outgrown the cadence.
	CheckpointDue() bool
	// Checkpoint persists a full state image and prunes the journal.
	Checkpoint(image []byte) error
	// Seq returns the last journaled sequence number.
	Seq() uint64
	// Close flushes and closes the store.
	Close() error
}

// Node is one storage site: it hosts LH* buckets for any number of
// logical files and serves the SDDS protocol. Nodes hold no key
// material — they only ever see sealed records, encrypted index pieces,
// and opaque query patterns.
type Node struct {
	id    transport.NodeID
	peers transport.Transport // for server-to-server forwarding
	place *Placement

	// linearSearch disables the posting index (set before serving any
	// traffic); handleSearch then falls back to the full linear scan.
	linearSearch bool

	// indexFactory, when non-nil, overrides the posting index
	// implementation new files get — the differential test battery uses
	// it to run a node on the legacy map index. Set before traffic.
	indexFactory func() postingIndex

	mu    sync.RWMutex
	files map[FileID]*nodeFile
	// applied is handlePutBatch's scratch for a group's entries bound
	// for the posting index, reused under mu.
	applied []kv

	// store, when non-nil, is the durable journal every mutation goes
	// through; storeOutcome records how AttachStore's recovery went
	// (surfaced via opRecoveryState).
	store        Store
	storeOutcome wal.Outcome

	// Two-phase migration ledger (DESIGN.md §14): outgoing sets this
	// node sourced, absorbed sets it received, and durable outcomes of
	// finished migrations — all keyed by migration ID, all journaled,
	// and all carried inside the node image.
	outgoing map[uint64]*migRecord
	absorbed map[uint64]*migRecord
	migDone  map[uint64]uint8

	met nodeMetrics // set by Instrument before traffic; nil-safe
}

type nodeFile struct {
	buckets map[uint64]*lhstar.Bucket
	// idx is the posting index accelerating handleSearch; non-nil only
	// for the index file on nodes that keep the posting index enabled.
	// The production implementation is flatIndex (posting.go): a
	// per-piece packed posting array. Because Stage-1 ECB maps equal
	// plaintext chunks to equal ciphertext chunks, the first piece of a
	// query pattern is an exact-match anchor into this structure, making
	// node-side search cost scale with candidate count instead of file
	// size. Maintained incrementally under the node lock on every
	// mutation (put/delete/split/merge) and rebuilt wholesale on restore.
	idx postingIndex
	// migLocked freezes buckets party to an in-flight migration
	// (addr → migration ID): writes are rejected loudly, reads served.
	// nil until the first migration touches this file, so the per-write
	// check costs one probe of a nil map.
	migLocked map[uint64]uint64
}

// postEntry caches one indexed entry's key and decoded piece stream, so
// a probe can verify candidates without re-decoding bucket values.
type postEntry struct {
	key        uint64
	firstIndex uint32
	pieces     []disperse.Piece
}

// indexPut (re)indexes one stored value. Values that do not decode as
// index pieces (foreign entries) are kept out of the index, mirroring
// the linear scan's skip. Callers must hold the node lock.
func (f *nodeFile) indexPut(key uint64, value []byte) {
	if f.idx == nil {
		return
	}
	f.idx.put(key, value)
}

// indexPutBatch indexes a batch of stored values in one pass — the
// batch-aware feed used by handlePutBatch, split/merge absorption, and
// migration absorbs, which groups posting appends per piece instead of
// running len(ents) independent puts. Callers must hold the node lock.
func (f *nodeFile) indexPutBatch(ents []kv) {
	if f.idx == nil {
		return
	}
	f.idx.putBatch(ents)
}

// indexDelete removes one key's postings. Callers must hold the node
// lock.
func (f *nodeFile) indexDelete(key uint64) {
	if f.idx == nil {
		return
	}
	f.idx.remove(key)
}

// rebuildIndex reconstructs the posting index from bucket contents —
// used after a wholesale state replacement (restore/recovery). Callers
// must hold the node lock.
func (f *nodeFile) rebuildIndex() {
	if f.idx == nil {
		return
	}
	f.idx.reset()
	// Feed the whole inventory through the batch path: values are
	// borrowed from bucket storage for the duration of the call only
	// (the index copies what it keeps).
	var ents []kv
	for _, b := range f.buckets {
		b.Scan(func(key uint64, value []byte) bool {
			ents = append(ents, kv{key: key, value: value})
			return true
		})
	}
	f.idx.putBatch(ents)
}

// Placement maps LH* bucket addresses onto the fixed node pool. The
// paper's model gives every bucket its own server; with a finite pool a
// bucket goes by its low p address bits: the 2^p slices, 2^p the
// smallest power of two ≥ 16·N, are dealt round-robin over the N nodes
// (DESIGN.md §14). A split or merge at level ≥ p keeps both buckets in
// one slice, so it moves records within one node; the busiest node holds
// at most 1/16 more than its fair share of slices. For an address below
// 2^p, and for any address when N divides 2^p, this is addr mod N. All
// LH* mechanics hold (forwarding simply becomes a message to the peer
// owning the target bucket).
type Placement struct {
	nodes  []transport.NodeID
	slices uint64 // 2^p
}

// NewPlacement builds a placement over the given nodes (at least one).
func NewPlacement(nodes []transport.NodeID) (*Placement, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sdds: placement needs at least one node")
	}
	slices := uint64(16)
	for slices < 16*uint64(len(nodes)) {
		slices <<= 1
	}
	return &Placement{nodes: append([]transport.NodeID(nil), nodes...), slices: slices}, nil
}

// NodeOf returns the node hosting a bucket address.
func (p *Placement) NodeOf(addr uint64) transport.NodeID {
	return p.nodes[(addr&(p.slices-1))%uint64(len(p.nodes))]
}

// Nodes returns the node pool. The returned slice is the placement's
// cached, immutable membership — callers must not modify it. (Every
// broadcast consults it, so handing out copies would put an allocation
// on the search hot path.)
func (p *Placement) Nodes() []transport.NodeID {
	return p.nodes
}

// NewNode creates a node. peers is the transport used for forwarding
// (it may be nil in single-node tests; forwarding then fails loudly).
func NewNode(id transport.NodeID, peers transport.Transport, placement *Placement) *Node {
	n := &Node{
		id:       id,
		peers:    peers,
		place:    placement,
		files:    make(map[FileID]*nodeFile),
		outgoing: make(map[uint64]*migRecord),
		absorbed: make(map[uint64]*migRecord),
		migDone:  make(map[uint64]uint8),
	}
	// Node 0 starts with the initial bucket of every file lazily; see
	// getFile.
	return n
}

// DisablePostingIndex switches the node to the linear search scan —
// the reference implementation the posting index must agree with. Call
// it before the node serves any traffic.
func (n *Node) DisablePostingIndex() {
	n.mu.Lock()
	n.linearSearch = true
	for _, f := range n.files {
		f.idx = nil
	}
	n.mu.Unlock()
}

// ErrMisplacedBucket marks a recovered node that holds a bucket its
// placement gives another node: the data dir was written under another
// placement (another node list or order, or an older placement rule).
var ErrMisplacedBucket = errors.New("sdds: bucket held off its placement")

// AttachStore gives the node a durable backing and replays whatever
// state the store recovered — call it before the node serves traffic.
// The returned outcome distinguishes a fresh store from a successful
// replay. On ANY recovery failure (checksum mismatch, sequence gap, or a
// replay that no longer applies) the local state cannot be vouched for:
// AttachStore returns OutcomeCorrupt with an error wrapping
// wal.ErrCorrupt, leaves the store's files exactly as they were (they
// are the only copy to salvage from), and the node must not serve. A
// recovered bucket that placement puts on another node fails it the
// same way, with an error wrapping ErrMisplacedBucket instead.
func (n *Node) AttachStore(s Store) (wal.Outcome, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out, err := s.Recover(n.restoreImageLocked, n.applyLoggedLocked)
	if err == nil {
		err = n.checkPlacementLocked()
	}
	if errors.Is(err, ErrMisplacedBucket) {
		return wal.OutcomeCorrupt, err
	}
	if err != nil {
		if !errors.Is(err, wal.ErrCorrupt) {
			err = fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		return wal.OutcomeCorrupt, fmt.Errorf("sdds: node %d: %w", n.id, err)
	}
	n.store = s
	n.storeOutcome = out
	return out, nil
}

// checkPlacementLocked fails on the first bucket (by file, then
// address) that this node holds and placement gives another node.
// Callers must hold the node lock.
func (n *Node) checkPlacementLocked() error {
	ids := make([]FileID, 0, len(n.files))
	for id := range n.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		addrs := make([]uint64, 0, len(n.files[id].buckets))
		for a := range n.files[id].buckets {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			if n.place.NodeOf(a) != n.id {
				return n.misplaced(id, a)
			}
		}
	}
	return nil
}

// misplaced names a bucket of file id that this node holds (or its
// journal wrote to) and placement gives another node.
func (n *Node) misplaced(id FileID, addr uint64) error {
	return fmt.Errorf("%w: file %d bucket %d is on node %d, placement gives node %d",
		ErrMisplacedBucket, id, addr, n.id, n.place.NodeOf(addr))
}

// CloseStore checkpoints the node's current state and closes the store —
// the graceful-shutdown path. A node whose store was already torn down
// out from under it (a simulated kill) is not an error.
func (n *Node) CloseStore() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.store == nil {
		return nil
	}
	s := n.store
	n.store = nil
	err := s.Checkpoint(n.snapshotLocked())
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

// journalLocked durably appends one mutation to the store (free on
// ephemeral nodes), flush included. The migration handlers call it
// under the write lock BEFORE applying, so the
// journal order is the apply order and a crash between the two replays
// the op the client never saw acknowledged — the at-least-once side of
// redo logging, safe because every journaled op is deterministic.
// Callers must hold the node lock.
func (n *Node) journalLocked(op uint8, payload []byte) error {
	if n.store == nil {
		return nil
	}
	if err := n.store.Journal(op, payload); err != nil {
		return fmt.Errorf("sdds: node %d: journaling op %d: %w", n.id, op, err)
	}
	return nil
}

// appendLocked queues one mutation for the journal without flushing it
// — the first half of the put_batch discipline: lock →
// resolve → append → apply → unlock → syncJournal → reply. Appending
// under the node lock keeps journal order equal to apply order; flushing
// after the lock is released keeps a disk flush from stalling every
// other request to the node, and lets concurrent requests (and all the
// entries of one batch) share a flush. Callers must hold the node lock
// and have checked n.store != nil.
func (n *Node) appendLocked(op uint8, payload []byte) (uint64, error) {
	seq, err := n.store.Append(op, payload)
	if err != nil {
		return 0, fmt.Errorf("sdds: node %d: journaling op %d: %w", n.id, op, err)
	}
	return seq, nil
}

// syncJournal blocks until the journal is durable up to seq — the gate
// between applying a mutation and acknowledging it. seq 0 means nothing
// was appended (an ephemeral node, or a request that applied nothing
// locally). store is the one appendLocked used, captured under the node
// lock: CloseStore may have detached it since. Callers must NOT hold the
// node lock.
func (n *Node) syncJournal(store Store, seq uint64) error {
	if seq == 0 {
		return nil
	}
	if err := store.Sync(seq); err != nil {
		return fmt.Errorf("sdds: node %d: flushing journal to seq %d: %w", n.id, seq, err)
	}
	return nil
}

// maybeCheckpointLocked folds the journal into a fresh checkpoint once
// it outgrows the cadence. Callers must hold the write lock.
func (n *Node) maybeCheckpointLocked() error {
	if n.store == nil || !n.store.CheckpointDue() {
		return nil
	}
	if err := n.store.Checkpoint(n.snapshotLocked()); err != nil {
		return fmt.Errorf("sdds: node %d: checkpoint: %w", n.id, err)
	}
	return nil
}

// applyLoggedLocked re-applies one journaled mutation during replay. It
// mirrors exactly what each handler does once it has journaled (queued
// or flushed) its op — minus forwarding, IAM responses and
// re-journaling. Callers must hold the write lock.
func (n *Node) applyLoggedLocked(op uint8, payload []byte) error {
	replayBucket := func(file FileID, addr uint64) (*nodeFile, *lhstar.Bucket, error) {
		f := n.fileLocked(file)
		b, ok := f.buckets[addr]
		if !ok && n.place.NodeOf(addr) != n.id {
			// Only bucket 0 is not journaled when created: its owner
			// makes it on first touch, so a journal written under
			// another placement writes to a bucket this node never made.
			return nil, nil, n.misplaced(file, addr)
		}
		if !ok {
			return nil, nil, fmt.Errorf("sdds: replay: node %d has no bucket %d of file %d", n.id, addr, file)
		}
		return f, b, nil
	}
	switch op {
	case opPut:
		return replayAs(payload, func(m putReq) error {
			f, b, err := replayBucket(m.file, m.addr)
			if err != nil {
				return err
			}
			b.Put(m.key, m.value)
			f.indexPut(m.key, m.value)
			return nil
		})
	case opDelete:
		return replayAs(payload, func(m keyHeader) error {
			f, b, err := replayBucket(m.file, m.addr)
			if err != nil {
				return err
			}
			if b.Delete(m.key) {
				f.indexDelete(m.key)
			}
			return nil
		})
	case opMigratePrepare:
		return replayAs(payload, n.applyMigratePrepareLocked)
	case opMigrateAbsorb:
		return replayAs(payload, n.applyMigrateAbsorbLocked)
	case opMigrateCommit:
		return replayAs(payload, n.applyMigrateCommitLocked)
	case opMigrateAbort:
		return replayAs(payload, n.applyMigrateAbortLocked)
	default:
		return fmt.Errorf("sdds: replay: op %d is not a journaled mutation", op)
	}
}

// replayAs decodes a journaled payload as a T and applies it.
func replayAs[T any, P interface {
	*T
	decodeFrom(*reader)
}](payload []byte, apply func(T) error) error {
	m, err := decode[T, P](payload)
	if err != nil {
		return err
	}
	return apply(m)
}

// Handler returns the transport handler serving this node. When the
// node is instrumented, every request is timed into its per-opcode
// latency histogram.
func (n *Node) Handler() transport.Handler {
	return func(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
		if !n.met.on {
			return n.dispatch(ctx, op, payload)
		}
		start := time.Now()
		resp, err := n.dispatch(ctx, op, payload)
		n.met.observeOp(op, time.Since(start), err)
		return resp, err
	}
}

// dispatch routes one request to its handler. The context carries the
// caller's remaining deadline budget; the handlers that forward (get,
// put_batch) derive their peer sends from it, so an IAM hop never
// outlives the time the original client actually has left. Ops 1 and 3,
// put and delete, are journal records only: a node answers them, like
// the retired codes, as unknown.
func (n *Node) dispatch(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	switch op {
	case opGet:
		return n.handleGet(ctx, payload)
	case opSearch:
		return n.handleSearch(payload)
	case opStats:
		return n.handleStats(payload)
	case opWordSearch:
		return n.handleWordSearch(payload)
	case opPutBatch:
		return n.handlePutBatch(ctx, payload)
	case opPing:
		return nil, nil // health probe: answering is the point
	case opRecoveryState:
		return n.handleRecoveryState(payload)
	case opMigratePrepare:
		return n.handleMigratePrepare(payload)
	case opMigrateAbsorb:
		return n.handleMigrateAbsorb(payload)
	case opMigrateCommit:
		return n.handleMigrateCommit(payload)
	case opMigrateAbort:
		return n.handleMigrateAbort(payload)
	default:
		return nil, fmt.Errorf("sdds: unknown op %d", op)
	}
}

// getFile returns the node's bucket table for a file, creating it (and,
// on the node owning bucket 0, the initial bucket) on first touch.
func (n *Node) getFile(id FileID) *nodeFile {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fileLocked(id)
}

// fileLocked is getFile under an already-held lock. The lazy bucket-0
// creation is deterministic (it depends only on the placement), so it
// needs no journal entry: replay re-creates it the same way.
func (n *Node) fileLocked(id FileID) *nodeFile {
	f, ok := n.files[id]
	if !ok {
		f = n.newFileLocked(id)
		if n.place.NodeOf(0) == n.id {
			f.buckets[0] = lhstar.NewBucket(0, 0)
		}
		n.files[id] = f
	}
	return f
}

// newFileLocked builds an empty per-file state: the index file gets a
// posting index unless the node runs in linear-scan mode. Callers must
// hold the node lock.
func (n *Node) newFileLocked(id FileID) *nodeFile {
	f := &nodeFile{buckets: make(map[uint64]*lhstar.Bucket)}
	if !n.linearSearch && id == FileIndex {
		if n.indexFactory != nil {
			f.idx = n.indexFactory()
		} else {
			f.idx = newFlatIndex(&n.met)
		}
	}
	return f
}

// maxHops bounds the hops a key takes from the bucket it was sent to:
// LH* needs at most two forwards, so a third is refused.
const maxHops = 3

// forwardDeadline bounds server-to-server forwards.
const forwardDeadline = 10 * time.Second

// resolveLocked runs the LH* server-side address computation for key,
// sent to bucket addr after hops forwards, through this node's own
// buckets: a hop to a bucket this node holds is followed here, and only
// a bucket on another node needs a forward. It returns the bucket that
// owns the key, or, with b nil, the address on another node the key goes
// to next and the hop count it arrives with. Local hops count against
// maxHops like forwards. Callers must hold the node lock (shared
// suffices).
func (n *Node) resolveLocked(f *nodeFile, file FileID, addr, key uint64, hops uint8) (*lhstar.Bucket, uint64, uint8, error) {
	for {
		b, ok := f.buckets[addr]
		if !ok {
			return nil, 0, 0, fmt.Errorf("sdds: node %d has no bucket %d of file %d", n.id, addr, file)
		}
		next, fwd := lhstar.ServerAddress(b.Addr(), b.Level(), key)
		if !fwd {
			return b, 0, 0, nil
		}
		if hops+1 >= maxHops {
			return nil, 0, 0, fmt.Errorf("sdds: forwarding chain exceeded %d hops for key %d", maxHops, key)
		}
		hops++
		if n.place.NodeOf(next) != n.id {
			return nil, next, hops, nil
		}
		addr = next
	}
}

// forward sends a request to a peer. WithTimeout on the request context
// takes the minimum of the local forward bound and the caller's
// propagated deadline, so the hop inherits the tighter of the two
// budgets.
func (n *Node) forward(ctx context.Context, node transport.NodeID, op uint8, req []byte) ([]byte, error) {
	if n.peers == nil {
		return nil, fmt.Errorf("sdds: forward needed but node %d has no peer transport", n.id)
	}
	n.met.forwards.Inc()
	ctx, cancel := context.WithTimeout(ctx, forwardDeadline)
	defer cancel()
	return n.peers.Send(ctx, node, op, req)
}

// peerBatch is the put_batch that carries a request's strays to one
// peer. offs[k] is where the k-th entry's answer goes in the request's.
type peerBatch struct {
	nodeBatch
	offs []int
}

// handlePutBatch is every data write: groups of independently addressed
// puts and deletes. Each entry is resolved through the node's buckets
// (resolveLocked); entries it owns are applied under one lock
// acquisition, each journaled as its own put or delete record, all
// sharing one flush. Strays owned on other nodes go on after the flush,
// one put_batch per peer whose groups carry their hop count. One keyResp
// per entry in request order gives the client every IAM that sequential
// single-key ops would have: moved is set wherever the owner is not the
// bucket the entry was sent to.
func (n *Node) handlePutBatch(ctx context.Context, payload []byte) ([]byte, error) {
	// Decoded in place rather than by decode, which allocates the
	// request it returns: this is every data write's path.
	var m putBatchReq
	rd := reader{b: payload}
	m.decodeFrom(&rd)
	err := rd.done()
	if err != nil {
		return nil, err
	}
	// The answer is written as the entries resolve; a stray's is reserved
	// and set after the forward.
	ans := writer{b: make([]byte, 0, 4*len(m.groups)+answerSize*m.n)}
	var peers []peerBatch
	// Bucket and index storage retain values past this handler, so each
	// locally applied value is copied out of the borrowed request buffer
	// into one packed backing of exactly valBytes, which never
	// reallocates, so the carved aliases stay valid.
	vals := make([]byte, 0, m.valBytes)
	// seq is the journal position of the last entry appended; the whole
	// request shares the one flush that follows the unlock.
	var seq uint64
	n.mu.Lock()
	// The walk stops at the first entry it cannot apply (err set). The
	// entries before it stay applied and journaled, so each group's
	// `applied` is indexed on every path: an early return must not leave
	// bucket contents the posting index has never seen.
	for gi := range m.groups {
		g := &m.groups[gi]
		f := n.fileLocked(g.file)
		ans.u32(uint32(len(g.entries)))
		// A put group's locally applied entries hit the index as ONE
		// batch: one putBatch call for the whole group, which carves the
		// entries' streams from one arena and appends each entry's
		// postings in turn. The slice is the node's, reused under the lock.
		applied := n.applied[:0]
		for _, e := range g.entries {
			var b *lhstar.Bucket
			var next uint64
			var hops uint8
			if b, next, hops, err = n.resolveLocked(f, g.file, e.addr, e.key, g.hops); err != nil {
				break
			}
			if b == nil {
				peers = n.addStray(peers, gi, g, hops, next, e, len(ans.b))
				ans.b = ans.b[:len(ans.b)+answerSize]
				continue
			}
			if err = f.migBlocked(g.file, b.Addr()); err != nil {
				break
			}
			// Each local entry journals as a put or delete record at its
			// resolved address; the frames only queue here. Ephemeral nodes
			// skip the journal encode.
			if n.store != nil {
				if seq, err = n.appendLocked(g.journalFrame(e, b.Addr())); err != nil {
					break
				}
			}
			var existed bool
			if g.del {
				if existed = b.Delete(e.key); existed {
					f.indexDelete(e.key)
				}
			} else {
				start := len(vals)
				vals = append(vals, e.value...)
				v := vals[start:len(vals):len(vals)]
				existed = !b.Put(e.key, v)
				applied = append(applied, kv{key: e.key, value: v})
			}
			keyResp{existed: existed, moved: b.Addr() != e.addr, iamAddr: b.Addr(), iamLevel: uint8(b.Level())}.encodeTo(&ans)
		}
		f.indexPutBatch(applied)
		clear(applied) // hold no value past the request
		n.applied = applied[:0]
		if err != nil {
			break
		}
	}
	if err == nil {
		err = n.maybeCheckpointLocked()
	}
	store := n.store
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := n.syncJournal(store, seq); err != nil {
		return nil, err
	}
	for i := range peers {
		p := &peers[i]
		raw, err := n.forward(ctx, p.node, opPutBatch, p.bw.finish())
		if err != nil {
			return nil, err
		}
		// A stray's owner is never the bucket it was sent to, which
		// refused it: its answer is always moved.
		k := 0
		if err := p.bw.readAnswer(raw, func(_ int, pr keyResp) {
			pr.moved = true
			setAnswer(ans.b[p.offs[k]:], pr)
			k++
		}); err != nil {
			return nil, err
		}
	}
	return ans.b, nil
}

// addStray routes entry e of group gi, bound for bucket next on another
// node with hops forwards, into that peer's put_batch, whose answer to it
// is set at off in the request's answer. A group per request group and
// hop count keeps each forwarded group's file byte true.
func (n *Node) addStray(peers []peerBatch, gi int, g *batchGroup, hops uint8, next uint64, e batchEntry, off int) []peerBatch {
	node := n.place.NodeOf(next)
	pi := slices.IndexFunc(peers, func(p peerBatch) bool { return p.node == node })
	if pi < 0 {
		peers = append(peers, peerBatch{nodeBatch: nodeBatch{node: node, bw: batchWriter{w: &writer{}}}})
		pi = len(peers) - 1
	}
	p := &peers[pi]
	p.bw.entry(gi*maxHops+int(hops), g.file, g.del, hops, next, e.key).raw(e.value)
	p.offs = append(p.offs, off)
	return peers
}

// handleGet answers a get from the bucket that owns the key, forwarding
// it when that bucket is on another node.
func (n *Node) handleGet(ctx context.Context, payload []byte) ([]byte, error) {
	h, err := decode[keyHeader](payload)
	if err != nil {
		return nil, err
	}
	f := n.getFile(h.file)
	var out []byte
	n.mu.RLock()
	b, next, hops, err := n.resolveLocked(f, h.file, h.addr, h.key, h.hops)
	if b != nil {
		v, ok := b.Get(h.key)
		out = encode(keyResp{existed: ok, iamAddr: b.Addr(), iamLevel: uint8(b.Level()), value: v})
	}
	n.mu.RUnlock()
	if err != nil || b != nil {
		return out, err
	}
	h.addr, h.hops = next, hops
	return n.forward(ctx, n.place.NodeOf(next), opGet, encode(h))
}

// hitPool recycles handleSearch's hit scratch. A slice grown past
// maxPooledHits is left to the collector, so one huge answer does not
// stay pinned.
var hitPool = sync.Pool{New: func() any { return new([]rawHit) }}

const maxPooledHits = 1 << 14

// handleSearch answers the site-side half of the paper's parallel
// search — executed entirely on opaque ciphertext. With the posting
// index enabled it probes the index by each pattern's anchor piece
// (its first piece) and verifies only the candidate positions; without
// it, it falls back to the reference linear scan over every bucket →
// entry → series. Both paths report the identical raw hit set. Hits
// gather in pooled scratch, and the answer is encoded into one buffer
// of exactly its size, after the node lock is released.
func (n *Node) handleSearch(payload []byte) ([]byte, error) {
	m, err := decode[searchReq](payload)
	if err != nil {
		return nil, err
	}
	f := n.getFile(m.file)
	scratch := hitPool.Get().(*[]rawHit)
	resp := searchResp{hits: (*scratch)[:0]}
	n.mu.RLock()
	n.met.searches.Inc()
	if f.idx != nil {
		n.met.postingSearches.Inc()
		n.searchPosting(f.idx, &m, &resp)
	} else {
		n.met.linearSearches.Inc()
		n.searchLinear(f, &m, &resp)
	}
	n.mu.RUnlock()
	n.met.searchHits.Add(uint64(len(resp.hits)))
	w := writer{b: make([]byte, 0, 4+hitWireSize*len(resp.hits))}
	resp.encodeTo(&w)
	if cap(resp.hits) <= maxPooledHits {
		*scratch = resp.hits[:0]
		hitPool.Put(scratch)
	}
	return w.b, nil
}

// searchPosting probes the posting index: for each (series, site)
// pattern, the entries whose streams contain the anchor piece are the
// only candidates, and each candidate offset is verified against the
// full pattern. Cost scales with candidate count, not file size. The
// probe walks the piece's packed posting array in one contiguous pass,
// skipping tombstones, and reaches each entry through the posting's
// slot, so it never hashes a key. An entry's postings sit adjacent in
// the array (every put appends one entry's postings together), so the
// key decomposition is memoized across the run of equal slots. A live
// posting of piece p at offset off guarantees pieces[off] == p, so a
// one-piece pattern is a hit without reading the entry's stream; only
// longer patterns are verified. Callers must hold the node lock (shared
// suffices).
func (n *Node) searchPosting(idx postingIndex, m *searchReq, resp *searchResp) {
	var candidates, verified uint64
	for _, s := range m.series {
		for k, pat := range s.patterns {
			if len(pat) == 0 {
				continue
			}
			var (
				lastSlot uint32
				haveSlot bool
				skipSlot bool
				e        *postEntry
				rid      uint64
				j, ek    int
			)
			for _, pt := range idx.postings(pat[0]) {
				if pt.off == tombstoneOff {
					continue
				}
				if !haveSlot || pt.slot != lastSlot {
					lastSlot, haveSlot = pt.slot, true
					e = idx.at(pt.slot)
					rid, j, ek = DecomposeIndexKey(e.key, int(m.kSites), uint(m.slotBits))
					skipSlot = ek != k
				}
				if skipSlot {
					continue
				}
				candidates++
				if len(pat) > 1 && !core.MatchAt(e.pieces, pat, int(pt.off)) {
					continue
				}
				verified++
				resp.hits = append(resp.hits, rawHit{
					rid:         rid,
					j:           uint8(j),
					k:           uint8(ek),
					a:           s.a,
					firstIndex:  e.firstIndex,
					pieceOffset: pt.off,
				})
			}
		}
	}
	n.met.postingCandidates.Add(candidates)
	n.met.postingVerified.Add(verified)
}

// searchLinear is the reference full scan: every bucket → entry →
// series → MatchOffsets. One piece-decode arena is reused across every
// entry of the scan. Callers must hold the node lock (shared suffices).
func (n *Node) searchLinear(f *nodeFile, m *searchReq, resp *searchResp) {
	var scratch []disperse.Piece
	for _, b := range f.buckets {
		b.Scan(func(key uint64, value []byte) bool {
			iv, grown, err := decodeIndexValueInto(value, scratch[:0])
			if err != nil {
				return true // skip foreign entries
			}
			scratch = grown[:0]
			rid, j, k := DecomposeIndexKey(key, int(m.kSites), uint(m.slotBits))
			for _, s := range m.series {
				if k >= len(s.patterns) {
					continue
				}
				for _, off := range core.MatchOffsets(iv.pieces, s.patterns[k]) {
					resp.hits = append(resp.hits, rawHit{
						rid:         rid,
						j:           uint8(j),
						k:           uint8(k),
						a:           s.a,
						firstIndex:  iv.firstIndex,
						pieceOffset: uint32(off),
					})
				}
			}
			return true
		})
	}
}

// handleWordSearch scans every local bucket of the word file: each
// entry is (rid → sorted token blob); the node reports the RIDs whose
// blob contains the query token. Pure equality on opaque tokens — no
// key material involved.
func (n *Node) handleWordSearch(payload []byte) ([]byte, error) {
	m, err := decode[wordSearchReq](payload)
	if err != nil {
		return nil, err
	}
	var token wordindex.Token
	copy(token[:], m.token)
	f := n.getFile(m.file)
	var resp wordSearchResp
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, b := range f.buckets {
		b.Scan(func(key uint64, value []byte) bool {
			ok, err := wordindex.BlobContains(value, token)
			if err == nil && ok {
				resp.rids = append(resp.rids, key)
			}
			return true
		})
	}
	return encode(resp), nil
}

// snapshotLocked serializes the node's entire bucket inventory (all
// files, plus the migration ledger) into the deterministic image a WAL
// checkpoint holds. Nodes hold no key material, so the image is as
// opaque as the buckets themselves. Callers must hold the node lock
// (shared suffices).
func (n *Node) snapshotLocked() []byte {
	fileIDs := make([]FileID, 0, len(n.files))
	for id := range n.files {
		fileIDs = append(fileIDs, id)
	}
	sort.Slice(fileIDs, func(i, j int) bool { return fileIDs[i] < fileIDs[j] })
	var img nodeImage
	for _, id := range fileIDs {
		f := n.files[id]
		addrs := make([]uint64, 0, len(f.buckets))
		for a := range f.buckets {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		fi := fileImage{file: id}
		for _, a := range addrs {
			fi.buckets = append(fi.buckets, f.buckets[a].Snapshot())
		}
		img.files = append(img.files, fi)
	}
	img.migs = n.migImageLocked()
	return encode(img)
}

// restoreImageLocked replaces the node's state with a checkpoint image —
// the restore callback of Store.Recover. Callers must hold the write
// lock.
func (n *Node) restoreImageLocked(payload []byte) error {
	files, migs, err := n.buildFilesLocked(payload)
	if err != nil {
		return err
	}
	n.files = files
	n.adoptMigImageLocked(migs)
	return nil
}

// buildFilesLocked decodes a node image into a fresh bucket inventory
// (posting indexes rebuilt) without touching the node's current state.
// The migration ledger rides in the image's trailing section; callers
// adopt it after swapping the files in. Callers must hold the write
// lock.
func (n *Node) buildFilesLocked(payload []byte) (map[FileID]*nodeFile, migrationImage, error) {
	img, err := decodeNodeImage(payload)
	if err != nil {
		return nil, migrationImage{}, err
	}
	files := make(map[FileID]*nodeFile, len(img.files))
	for _, fi := range img.files {
		nf := n.newFileLocked(fi.file)
		for _, snap := range fi.buckets {
			b, err := lhstar.RestoreBucket(snap)
			if err != nil {
				return nil, migrationImage{}, fmt.Errorf("sdds: restoring file %d: %w", fi.file, err)
			}
			nf.buckets[b.Addr()] = b
		}
		nf.rebuildIndex()
		files[fi.file] = nf
	}
	return files, img.migs, nil
}

// handleRecoveryState reports how this node's local state came to be —
// the signal the Supervisor uses to tell a local replay (a repair) from
// a node that came back without its state (an alarm).
func (n *Node) handleRecoveryState(payload []byte) ([]byte, error) {
	if len(payload) != 0 {
		return nil, errors.New("sdds: recovery state takes no payload")
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	resp := recoveryStateResp{mode: recoveryEphemeral}
	if n.store != nil {
		resp.seq = n.store.Seq()
		switch n.storeOutcome {
		case wal.OutcomeFresh:
			resp.mode = recoveryFresh
		case wal.OutcomeRecovered:
			resp.mode = recoveryRecovered
		}
	}
	return encode(resp), nil
}

func (n *Node) handleStats(payload []byte) ([]byte, error) {
	if len(payload) != 1 {
		return nil, errShortPayload
	}
	f := n.getFile(FileID(payload[0]))
	var resp statsResp
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, b := range f.buckets {
		resp.buckets = append(resp.buckets, bucketStat{
			addr:  b.Addr(),
			level: uint8(b.Level()),
			size:  uint32(b.Len()),
		})
	}
	return encode(resp), nil
}
