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
	"repro/internal/lhstar"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Cluster is the client-plus-coordinator side of the SDDS: it tracks
// each file's true state (as the split coordinator), keeps a client
// image per file (deliberately allowed to lag, exercising forwarding
// and IAMs), and executes the distributed operations over a Transport.
//
// The LH* coordinator is a distinguished site in the paper; here it
// lives in the client process, which is equivalent for a single-writer
// deployment and keeps the daemon nodes entirely key- and
// state-agnostic.
type Cluster struct {
	tr    transport.Transport
	place *Placement

	// opsMu excludes structural changes (splits/merges) from normal
	// operations: Put/Get/Delete hold it shared, split/merge exclusive.
	// Without it a record could land in a bucket mid-extraction and be
	// silently lost or reverted.
	opsMu sync.RWMutex

	mu         sync.Mutex
	files      map[FileID]*fileState
	migResumes uint64 // resume drives performed by this process

	// miglog journals every split/merge intent before its first RPC and
	// its outcome after the last, making growth resumable (DESIGN.md
	// §14). Defaults to an in-memory log; AttachMigrationLog installs a
	// durable one. Only mutated under opsMu exclusive.
	miglog MigrationLog

	met clusterMetrics // set by Instrument before traffic; nil-safe
}

type fileState struct {
	state   lhstar.State
	image   lhstar.Image // client image; lags behind state on purpose
	size    int          // total records (coordinator's load tracker)
	maxLoad int
	minLoad int // merge threshold; 0 disables shrinking
	splits  int
	merges  int
	iams    int
}

// DefaultMaxLoad is the per-bucket split threshold.
const DefaultMaxLoad = 128

// NewCluster builds a cluster client over the transport and placement.
func NewCluster(tr transport.Transport, place *Placement) *Cluster {
	return &Cluster{
		tr:     tr,
		place:  place,
		files:  make(map[FileID]*fileState),
		miglog: NewMemMigrationLog(),
	}
}

// AttachMigrationLog installs a durable migration log, replacing the
// default in-memory one. Must be called before any split or merge.
// Committed intents already in the log are folded into the coordinator
// file state (the log doubles as the coordinator's state journal — a
// restarted coordinator otherwise believes every file is back to one
// bucket); it returns the number of in-flight migrations found, which
// the caller should resolve with ResumeMigrations once nodes are up.
func (c *Cluster) AttachMigrationLog(lg MigrationLog) (inFlight int, err error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	if len(c.miglog.Records()) > 0 {
		return 0, fmt.Errorf("sdds: migration log must be attached before any split or merge")
	}
	recs := lg.Records()
	sortRecordsByMID(recs)
	c.mu.Lock()
	for _, r := range recs {
		switch {
		case !r.Done:
			inFlight++
		case r.Outcome == MigrationCommitted:
			f := c.file(r.Intent.File)
			f.state = resultingState(r.Intent)
			f.image = f.state.Image()
		}
	}
	c.miglog = lg
	c.mu.Unlock()
	c.syncMigGauge()
	return inFlight, nil
}

// MigrationStats summarizes the migration ledger: durable counts from
// the journal plus this process's resume drives.
func (c *Cluster) MigrationStats() MigrationStats {
	c.mu.Lock()
	lg := c.miglog
	resumes := c.migResumes
	c.mu.Unlock()
	s := migStatsOf(lg.Records())
	s.Resumed = resumes
	return s
}

// Transport returns the underlying transport.
func (c *Cluster) Transport() transport.Transport { return c.tr }

// Placement returns the bucket placement.
func (c *Cluster) Placement() *Placement { return c.place }

func (c *Cluster) file(id FileID) *fileState {
	f, ok := c.files[id]
	if !ok {
		f = &fileState{maxLoad: DefaultMaxLoad, minLoad: DefaultMaxLoad / 4}
		c.files[id] = f
	}
	return f
}

// SetMaxLoad adjusts a file's split threshold (records per bucket).
func (c *Cluster) SetMaxLoad(id FileID, maxLoad int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxLoad > 0 {
		f := c.file(id)
		f.maxLoad = maxLoad
		f.minLoad = maxLoad / 4
	}
}

// State returns the coordinator state of a file.
func (c *Cluster) State(id FileID) lhstar.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file(id).state
}

// Image returns the current client image of a file.
func (c *Cluster) Image(id FileID) lhstar.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file(id).image
}

// Stats returns cumulative split and IAM counters for a file.
func (c *Cluster) Stats(id FileID) (splits, iams int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.file(id)
	return f.splits, f.iams
}

// Merges returns the cumulative merge (shrink) counter for a file.
func (c *Cluster) Merges(id FileID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file(id).merges
}

// keyOp is the client half of every single-key op: address the key
// from the client image, send one request (a put's carries value), and
// fold the response's IAM back into the image. Callers hold opsMu shared.
func (c *Cluster) keyOp(ctx context.Context, op uint8, id FileID, key uint64, value []byte) (*fileState, keyResp, error) {
	c.mu.Lock()
	f := c.file(id)
	addr := f.image.Address(key)
	c.mu.Unlock()

	req := putReq{keyHeader{file: id, addr: addr, key: key}, value}
	w := getWriter()
	if op == opPut {
		req.encodeTo(w)
	} else {
		req.keyHeader.encodeTo(w)
	}
	raw, err := c.tr.Send(ctx, c.place.NodeOf(addr), op, w.b)
	putWriter(w)
	if err != nil {
		return nil, keyResp{}, err
	}
	resp, err := decode[keyResp](raw)
	if err != nil {
		return nil, keyResp{}, err
	}
	if resp.iamAddr != addr {
		c.mu.Lock()
		f.image.Adjust(resp.iamAddr, uint(resp.iamLevel))
		f.iams++
		c.mu.Unlock()
		c.met.iams.Inc()
		obs.TraceFrom(ctx).AddHops(1)
	}
	return f, resp, nil
}

// Put stores a key/value pair in a file, splitting the file if it
// overflows.
func (c *Cluster) Put(ctx context.Context, id FileID, key uint64, value []byte) error {
	c.met.puts.Inc()
	c.opsMu.RLock()
	f, resp, err := c.keyOp(ctx, opPut, id, key, value)
	if err != nil {
		c.opsMu.RUnlock()
		return err
	}
	c.mu.Lock()
	if !resp.existed {
		f.size++
	}
	c.mu.Unlock()
	c.opsMu.RUnlock()
	return c.settle(ctx, writeFile{id: id, f: f})
}

// Get retrieves a value by key.
func (c *Cluster) Get(ctx context.Context, id FileID, key uint64) ([]byte, bool, error) {
	c.met.gets.Inc()
	c.opsMu.RLock()
	defer c.opsMu.RUnlock()
	_, resp, err := c.keyOp(ctx, opGet, id, key, nil)
	if err != nil || !resp.existed {
		return nil, false, err
	}
	return resp.value, true, nil
}

// Delete removes a key, reporting whether it existed.
func (c *Cluster) Delete(ctx context.Context, id FileID, key uint64) (bool, error) {
	c.met.deletes.Inc()
	c.opsMu.RLock()
	f, resp, err := c.keyOp(ctx, opDelete, id, key, nil)
	if err != nil {
		c.opsMu.RUnlock()
		return false, err
	}
	if resp.existed {
		c.mu.Lock()
		f.size--
		c.mu.Unlock()
	}
	c.opsMu.RUnlock()
	return resp.existed, c.settle(ctx, writeFile{id: id, del: true, f: f})
}

// merge performs one coordinator-driven file shrink: close the last
// split's image bucket, absorb its records back, retreat the state.
// After a shrink the client image is refreshed from the coordinator
// state — a shrunken file can otherwise leave images pointing at
// buckets that no longer exist (LH* shrinking requires coordinator
// assistance for exactly this reason).
func (c *Cluster) merge(ctx context.Context, id FileID) error {
	for {
		done, err := c.mergeOne(ctx, id)
		if err != nil || done {
			return err
		}
	}
}

// mergeOne performs at most one shrink as a two-phase migration: the
// closing bucket's records are journaled as outgoing, durably absorbed
// by the surviving partner, then committed (DESIGN.md §14); done
// reports that no (further) shrink is needed.
func (c *Cluster) mergeOne(ctx context.Context, id FileID) (done bool, err error) {
	return c.migrate(ctx, id, func(f *fileState) (MigrationIntent, bool) {
		st := f.state
		if st.Buckets() <= 1 || f.size >= int(st.Buckets()-1)*f.minLoad || !st.RetreatSplit() {
			return MigrationIntent{}, false
		}
		// The closing bucket (records leave) and the surviving partner they
		// return to; both sit at level st.I+1, the level the split that
		// created the image bucket raised them to.
		return MigrationIntent{Kind: MigrateMerge, From: st.N + 1<<st.I, To: st.N, Level: uint8(st.I + 1)}, true
	})
}

// split performs one coordinator-driven LH* split of the file as a
// two-phase migration: journal the intent, prepare the outgoing half on
// the source (which keeps serving it), durably absorb it at the target,
// then commit both sides (DESIGN.md §14). Serialized per cluster.
func (c *Cluster) split(ctx context.Context, id FileID) error {
	_, err := c.migrate(ctx, id, func(f *fileState) (MigrationIntent, bool) {
		if f.size <= int(f.state.Buckets())*f.maxLoad {
			return MigrationIntent{}, false // lost the race; someone else split already
		}
		from, to := f.state.NextSplit()
		return MigrationIntent{Kind: MigrateSplit, From: from, To: to, Level: uint8(f.state.BucketLevel(from))}, true
	})
	return err
}

// migrate runs one structural change of a file, the same way for growth
// and shrink: settle whatever migration of the file is still in flight,
// let plan decide (under c.mu, from the file's current state) which
// buckets move — or that nothing needs to, reported as done — then
// journal the intent BEFORE the first RPC, so a restarted coordinator
// knows the move may be half-done on the nodes, and drive it.
func (c *Cluster) migrate(ctx context.Context, id FileID, plan func(f *fileState) (MigrationIntent, bool)) (done bool, err error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	if err := c.resumeFileLocked(ctx, id); err != nil {
		return false, err
	}
	c.mu.Lock()
	f := c.file(id)
	intent, wanted := plan(f)
	intent.File, intent.PrevState = id, f.state
	c.mu.Unlock()
	if !wanted {
		return true, nil
	}
	if intent.MID, err = c.miglog.Begin(intent); err != nil {
		return false, fmt.Errorf("sdds: journaling the intent to move bucket %d of file %d to %d: %w", intent.From, id, intent.To, err)
	}
	c.met.migStarted.Inc()
	c.syncMigGauge()
	return false, c.driveMigrationLocked(ctx, intent)
}

// isDefinitive reports whether a Send error is a definitive rejection
// by the remote handler (safe to treat as "the operation did not and
// will not apply") as opposed to a transport failure where the outcome
// is unknown. Transports wrap handler errors as *transport.RemoteError.
func isDefinitive(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re)
}

// driveMigrationLocked executes (or re-executes — every step is keyed
// by the migration ID and idempotent) one journaled migration to a
// durable outcome. On a transport failure the migration stays in-flight
// in the log and the error is returned; the next split/merge on the
// file, or ResumeMigrations, re-drives it. Callers must hold opsMu
// exclusively.
func (c *Cluster) driveMigrationLocked(ctx context.Context, intent MigrationIntent) error {
	hdr := intent.header()
	srcNode := c.place.NodeOf(intent.From)
	dstNode := c.place.NodeOf(intent.To)

	// Phase 1: the source journals the moved set as outgoing, freezes
	// the bucket for writes, and returns a copy — destroying nothing.
	raw, err := c.tr.Send(ctx, srcNode, opMigratePrepare, encode(hdr))
	if err != nil {
		if !isDefinitive(err) {
			return fmt.Errorf("sdds: migration %d: preparing bucket %d on node %d: %w", intent.MID, intent.From, srcNode, err)
		}
		return c.abortMigrationLocked(ctx, intent,
			fmt.Errorf("sdds: migration %d: source node %d rejected prepare: %w", intent.MID, srcNode, err))
	}
	// The response is a status byte followed by the moved records,
	// encoded exactly as the absorb request carries them behind its
	// header: the batch is relayed as received, and the target's absorb
	// decoder is what validates it.
	if len(raw) == 0 {
		return fmt.Errorf("sdds: migration %d: empty prepare response from node %d", intent.MID, srcNode)
	}
	switch raw[0] {
	case migrateStatusCommitted:
		// The source already committed durably (a prior drive got at
		// least that far); roll the rest forward.
		return c.finishCommitLocked(ctx, intent, true)
	case migrateStatusAborted:
		// The source already aborted durably; finish the ledger to match.
		return c.abortMigrationLocked(ctx, intent, nil)
	}

	// Phase 2: the target durably lands the records under the migration
	// ID. Idempotent: a retried absorb acks without re-applying.
	if _, err := c.tr.Send(ctx, dstNode, opMigrateAbsorb, append(encode(hdr), raw[1:]...)); err != nil {
		if !isDefinitive(err) {
			return fmt.Errorf("sdds: migration %d: absorbing into bucket %d on node %d: %w", intent.MID, intent.To, dstNode, err)
		}
		return c.abortMigrationLocked(ctx, intent,
			fmt.Errorf("sdds: migration %d: target node %d rejected absorb: %w", intent.MID, dstNode, err))
	}

	// Phase 3: commit — the source applies its deferred destructive half.
	return c.finishCommitLocked(ctx, intent, false)
}

// finishCommitLocked sends the commits (source first — it holds the
// deferred destructive half — then target) and records the committed
// outcome and resulting file state. After the target's durable absorb,
// commit is the only direction: a commit-send failure leaves the
// migration in-flight for a later re-drive rather than aborting.
// Callers must hold opsMu exclusively.
func (c *Cluster) finishCommitLocked(ctx context.Context, intent MigrationIntent, sourceDone bool) error {
	if err := c.sendFinishLocked(ctx, intent, opMigrateCommit, sourceDone); err != nil {
		return err
	}
	if err := c.miglog.Finish(intent.MID, MigrationCommitted); err != nil {
		return err
	}
	c.met.migCommitted.Inc()
	c.mu.Lock()
	f := c.file(intent.File)
	f.state = resultingState(intent)
	if intent.Kind == MigrateSplit {
		f.splits++
		c.met.splits.Inc()
		// Deliberately do NOT refresh the client image: letting it lag
		// exercises the real LH* path — server forwarding plus IAMs — on
		// every run, exactly as a remote client would behave.
	} else {
		f.merges++
		c.met.merges.Inc()
		// After a shrink the client image is refreshed from the
		// coordinator state — a shrunken file can otherwise leave images
		// pointing at buckets that no longer exist (LH* shrinking
		// requires coordinator assistance for exactly this reason).
		f.image = f.state.Image()
	}
	c.mu.Unlock()
	c.syncMigGauge()
	return nil
}

// sendFinishLocked sends a migration's commit or abort to the source
// node (skipped when the source is known to have applied it already),
// then to the target — unless one node holds both buckets: a node
// settles every role it plays for the ID in one message. Callers must
// hold opsMu exclusively.
func (c *Cluster) sendFinishLocked(ctx context.Context, intent MigrationIntent, op uint8, sourceDone bool) error {
	fin := encode(migrateFinishReq{mid: intent.MID})
	srcNode := c.place.NodeOf(intent.From)
	dstNode := c.place.NodeOf(intent.To)
	if !sourceDone {
		if _, err := c.tr.Send(ctx, srcNode, op, fin); err != nil {
			return fmt.Errorf("sdds: migration %d: %s for source bucket %d on node %d: %w", intent.MID, OpName(op), intent.From, srcNode, err)
		}
	}
	if dstNode != srcNode {
		if _, err := c.tr.Send(ctx, dstNode, op, fin); err != nil {
			return fmt.Errorf("sdds: migration %d: %s for target bucket %d on node %d: %w", intent.MID, OpName(op), intent.To, dstNode, err)
		}
	}
	return nil
}

// abortMigrationLocked resolves a migration to the aborted outcome on
// both participants (the source forgets the intent — nothing ever left
// its bucket; the target surgically discards what it absorbed; a node
// that never saw the ID poisons it against delayed frames) and in the
// log, then returns cause. If an abort send fails the migration stays
// in-flight for a later re-drive. Callers must hold opsMu exclusively.
func (c *Cluster) abortMigrationLocked(ctx context.Context, intent MigrationIntent, cause error) error {
	if err := c.sendFinishLocked(ctx, intent, opMigrateAbort, false); err != nil {
		return errors.Join(cause, err)
	}
	if err := c.miglog.Finish(intent.MID, MigrationAborted); err != nil {
		return errors.Join(cause, err)
	}
	c.met.migAborted.Inc()
	c.syncMigGauge()
	return cause
}

// resumeFileLocked re-drives any in-flight migration of the file before
// a new one begins — the in-process resume path (a prior drive may have
// returned a transport error and left the migration, and its frozen
// buckets, pending). Callers must hold opsMu exclusively.
func (c *Cluster) resumeFileLocked(ctx context.Context, id FileID) error {
	for _, r := range c.miglog.Records() {
		if r.Done || r.Intent.File != id {
			continue
		}
		c.noteResume()
		if err := c.driveMigrationLocked(ctx, r.Intent); err != nil {
			return fmt.Errorf("sdds: resuming migration %d: %w", r.Intent.MID, err)
		}
	}
	return nil
}

// ResumeMigrations rolls every in-flight migration in the log forward
// (or aborts it when a participant definitively rejects) and returns
// how many were resumed. A restarted coordinator calls this after
// AttachMigrationLog once nodes are reachable; the Supervisor calls it
// when the cluster turns healthy.
func (c *Cluster) ResumeMigrations(ctx context.Context) (resumed int, err error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	for _, r := range c.miglog.Records() {
		if r.Done {
			continue
		}
		resumed++
		c.noteResume()
		if derr := c.driveMigrationLocked(ctx, r.Intent); derr != nil && err == nil {
			err = derr
		}
	}
	return resumed, err
}

func (c *Cluster) noteResume() {
	c.met.migResumed.Inc()
	c.mu.Lock()
	c.migResumes++
	c.mu.Unlock()
}

// syncMigGauge publishes the in-flight migration count from the log —
// the durable ground truth — so the gauge survives coordinator
// restarts along with it.
func (c *Cluster) syncMigGauge() {
	if c.met.migInFlight == nil {
		return
	}
	c.met.migInFlight.Set(int64(migStatsOf(c.miglog.Records()).InFlight))
}

// ResetImage discards the client image (back to the one-bucket initial
// image), used by tests to exercise forwarding and IAMs.
func (c *Cluster) ResetImage(id FileID) {
	c.mu.Lock()
	c.file(id).image = lhstar.Image{}
	c.mu.Unlock()
}

// Size returns the coordinator's record count for a file.
func (c *Cluster) Size(id FileID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file(id).size
}

// NodeFailure is one node's error in a batched operation.
type NodeFailure struct {
	Node transport.NodeID
	Err  error
}

// BatchError reports the nodes whose part of a batched operation
// failed; the remaining nodes' parts were applied. It composes with
// the transport Retry middleware: a node is listed only after the
// retry layer has exhausted its attempts against it, so callers can
// re-drive just the failed portion (the puts are idempotent).
type BatchError struct {
	Failures []NodeFailure
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("sdds: batch failed on nodes %v: %v", failedNodes(e.Failures), e.Failures[0].Err)
}

// Unwrap exposes the per-node errors to errors.Is/As.
func (e *BatchError) Unwrap() []error { return failureErrs(e.Failures) }

// IncompleteError reports a search that some nodes did not answer. RIDs
// holds what the answering nodes matched: a subset of the full answer,
// never a superset, since a match needs hits and a silent node adds none.
type IncompleteError struct {
	RIDs   []uint64
	Failed []NodeFailure
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("sdds: search incomplete, nodes %v did not answer: %v", failedNodes(e.Failed), e.Failed[0].Err)
}

// Unwrap exposes the per-node errors to errors.Is/As.
func (e *IncompleteError) Unwrap() []error { return failureErrs(e.Failed) }

func failedNodes(fs []NodeFailure) []transport.NodeID {
	out := make([]transport.NodeID, len(fs))
	for i, f := range fs {
		out[i] = f.Node
	}
	return out
}

func failureErrs(fs []NodeFailure) []error {
	out := make([]error, len(fs))
	for i, f := range fs {
		out[i] = f.Err
	}
	return out
}

// writeFile is one file's puts, or deletes, in a write round.
type writeFile struct {
	id      FileID
	del     bool
	f       *fileState
	existed int // deletes that found their key
}

// nodeBatch is the put_batch a write round sends to one node; its groups
// are tagged with their file's index in the round's files.
type nodeBatch struct {
	node transport.NodeID
	bw   batchWriter
}

// writeRound routes a write's entries, each from its file's client
// image, into one put_batch per destination node. It runs under c.mu.
type writeRound struct {
	c     *Cluster
	files []writeFile
	nodes []nodeBatch
}

// add routes key of files[fi] and returns the writer a put's value is
// encoded into.
func (r *writeRound) add(fi int, key uint64) *writer {
	w := &r.files[fi]
	addr := w.f.image.Address(key)
	node := r.c.place.NodeOf(addr)
	// A write lands on at most a handful of nodes: a linear scan of a
	// value slice beats a map's hash and allocation on this hot path.
	bi := slices.IndexFunc(r.nodes, func(b nodeBatch) bool { return b.node == node })
	if bi < 0 {
		r.nodes = append(r.nodes, nodeBatch{node: node, bw: batchWriter{w: getWriter()}})
		bi = len(r.nodes) - 1
	}
	return r.nodes[bi].bw.entry(fi, w.id, w.del, addr, key)
}

// putIndex routes one record's index records into files[fi]: every
// (chunking, site) piece stream under its §5 composite key.
func (r *writeRound) putIndex(fi int, recs []core.IndexRecord, kSites int, slotBits uint) {
	for _, rec := range recs {
		for k, stream := range rec.Streams {
			key := ComposeIndexKey(rec.RID, rec.J, k, kSites, slotBits)
			indexValue{firstIndex: uint32(rec.FirstIndex), pieces: stream}.encodeTo(r.add(fi, key))
		}
	}
}

// delIndex routes the deletes of a record's m·k index keys into files[fi].
func (r *writeRound) delIndex(fi int, rid uint64, m, kSites int, slotBits uint) {
	for j := 0; j < m; j++ {
		for k := 0; k < kSites; k++ {
			r.add(fi, ComposeIndexKey(rid, j, k, kSites, slotBits))
		}
	}
}

// write runs one write round: route adds the entries, every destination
// node gets its put_batch at once, the answers update the client images
// and file sizes, and each file splits or merges as its size demands. On
// partial failure the answering nodes' entries stay applied and a
// *BatchError names the failed nodes; repeating the write completes it.
func (c *Cluster) write(ctx context.Context, files []writeFile, route func(r *writeRound)) error {
	r := writeRound{c: c, files: files}
	c.opsMu.RLock()
	c.mu.Lock()
	for i := range files {
		files[i].f = c.file(files[i].id)
	}
	route(&r)
	c.mu.Unlock()

	nodeIDs := make([]transport.NodeID, len(r.nodes))
	payloads := make([][]byte, len(r.nodes))
	for i := range r.nodes {
		nodeIDs[i] = r.nodes[i].node
		payloads[i] = r.nodes[i].bw.finish()
	}
	c.met.batches.Add(uint64(len(r.nodes)))
	results := transport.ScatterList(ctx, c.tr, opPutBatch, nodeIDs, payloads)
	for i := range r.nodes {
		putWriter(r.nodes[i].bw.w)
	}

	c.mu.Lock()
	failed, err := r.fold(ctx, results)
	c.mu.Unlock()
	c.opsMu.RUnlock()
	if err != nil {
		return err
	}
	// With unreachable nodes a split would likely fail too and mask the
	// partial-failure report; leave the overflow for the next write.
	if failed != nil {
		return &BatchError{Failures: failed}
	}
	for _, w := range files {
		if err := c.settle(ctx, w); err != nil {
			return err
		}
	}
	return nil
}

// fold applies each node's answer — per group its count, then one
// keyResp per entry — and collects the nodes that failed.
func (r *writeRound) fold(ctx context.Context, results []transport.Result) ([]NodeFailure, error) {
	var failed []NodeFailure
	for bi, res := range results {
		if res.Err != nil {
			failed = append(failed, NodeFailure{Node: res.Node, Err: res.Err})
			continue
		}
		rd := reader{b: res.Payload}
		for _, g := range r.nodes[bi].bw.groups {
			if n := rd.bound(rd.u32(), 14); rd.err == nil && n != g.n {
				return nil, fmt.Errorf("sdds: batch response group has %d entries, want %d", n, g.n)
			}
			w := &r.files[g.tag]
			for i := 0; i < g.n && rd.err == nil; i++ {
				var pr keyResp
				if pr.decodeFrom(&rd); rd.err != nil {
					break
				}
				if pr.moved {
					w.f.image.Adjust(pr.iamAddr, uint(pr.iamLevel))
					w.f.iams++
					r.c.met.iams.Inc()
					obs.TraceFrom(ctx).AddHops(1)
				}
				switch {
				case w.del && pr.existed:
					w.f.size--
					w.existed++
				case !w.del && !pr.existed:
					w.f.size++
				}
			}
		}
		if err := rd.done(); err != nil {
			return nil, err
		}
	}
	return failed, nil
}

// settle restores a written file's load invariant: after puts it splits
// until the file fits (one batch can overflow it by more than a bucket),
// after deletes it merges if the file has shrunk enough.
func (c *Cluster) settle(ctx context.Context, w writeFile) error {
	for {
		c.mu.Lock()
		f, b := w.f, int(w.f.state.Buckets())
		split := !w.del && f.size > b*f.maxLoad
		merge := w.del && f.minLoad > 0 && b > 1 && f.size < (b-1)*f.minLoad
		c.mu.Unlock()
		if merge {
			return c.merge(ctx, w.id)
		}
		if !split {
			return nil
		}
		if err := c.split(ctx, w.id); err != nil {
			return err
		}
	}
}

// InsertIndexed stores the index records of one record in one write
// round: one put_batch per destination node instead of m·k puts.
func (c *Cluster) InsertIndexed(ctx context.Context, id FileID, recs []core.IndexRecord, kSites int, slotBits uint) error {
	return c.write(ctx, []writeFile{{id: id}}, func(r *writeRound) { r.putIndex(0, recs, kSites, slotBits) })
}

// DeleteIndexed removes all index pieces of a record in one write round.
func (c *Cluster) DeleteIndexed(ctx context.Context, id FileID, rid uint64, m, kSites int, slotBits uint) error {
	return c.write(ctx, []writeFile{{id: id, del: true}}, func(r *writeRound) { r.delIndex(0, rid, m, kSites, slotBits) })
}

// InsertRecord writes in one round sealed under rid in FileRecords, recs
// in FileIndex and, if non-nil, the word blob in FileWords.
func (c *Cluster) InsertRecord(ctx context.Context, rid uint64, sealed []byte, recs []core.IndexRecord, kSites int, slotBits uint, words []byte) error {
	c.met.puts.Inc()
	return c.write(ctx, []writeFile{{id: FileRecords}, {id: FileIndex}, {id: FileWords}}, func(r *writeRound) {
		r.add(0, rid).raw(sealed)
		r.putIndex(1, recs, kSites, slotBits)
		if words != nil {
			r.add(2, rid).raw(words)
		}
	})
}

// DeleteRecord removes in one round rid from FileRecords, its m·k index
// pieces from FileIndex and, with words, its FileWords blob, reporting
// whether the record existed; the rest is deleted either way.
func (c *Cluster) DeleteRecord(ctx context.Context, rid uint64, m, kSites int, slotBits uint, words bool) (bool, error) {
	c.met.deletes.Inc()
	files := []writeFile{{id: FileRecords, del: true}, {id: FileIndex, del: true}, {id: FileWords, del: true}}
	err := c.write(ctx, files, func(r *writeRound) {
		r.add(0, rid)
		r.delIndex(1, rid, m, kSites, slotBits)
		if words {
			r.add(2, rid)
		}
	})
	return files[0].existed > 0, err
}

// gather broadcasts one request to every node and decodes each answer.
// It sends to the placement's authoritative membership, not the
// transport's live view, so a crashed node surfaces as a failure rather
// than being skipped. Nodes that do not answer come back as failures; a
// malformed answer or the caller's context ending fails the call.
func gather[T any, P interface {
	*T
	decodeFrom(*reader)
}](ctx context.Context, c *Cluster, op uint8, req []byte) ([]T, []NodeFailure, error) {
	results := transport.Broadcast(ctx, c.tr, c.place.Nodes(), op, req)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	resps := make([]T, 0, len(results))
	var failed []NodeFailure
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, NodeFailure{Node: r.Node, Err: r.Err})
			continue
		}
		resp, err := decode[T, P](r.Payload)
		if err != nil {
			return nil, nil, err
		}
		resps = append(resps, resp)
	}
	return resps, failed, nil
}

// answer returns a search's RIDs, or, when some node failed, an
// *IncompleteError carrying them.
func (c *Cluster) answer(rids []uint64, failed []NodeFailure) ([]uint64, error) {
	if len(failed) == 0 {
		return rids, nil
	}
	c.met.searchesPartial.Inc()
	c.met.failedSites.Add(uint64(len(failed)))
	return nil, &IncompleteError{RIDs: rids, Failed: failed}
}

// Search broadcasts a compiled query to every node in parallel, gathers
// the raw per-site hits, and combines them: a series hit requires all K
// sites of a chunking to agree at the same chunk offset; record-level
// acceptance follows the verification mode. It returns the sorted
// matching RIDs. When some node does not answer it returns an
// *IncompleteError holding the answering nodes' matches.
func (c *Cluster) Search(ctx context.Context, id FileID, pl *core.Pipeline, query *core.Query, mode core.VerifyMode) ([]uint64, error) {
	c.met.searches.Inc()
	start := time.Now()
	// Per-op trace: adopt the caller's (threaded via context) or, when
	// the cluster is instrumented, start one of our own.
	tr := obs.TraceFrom(ctx)
	if owned := tr == nil && c.met.reg != nil; owned {
		tr = c.met.reg.StartTrace("search")
		defer tr.Finish()
	}
	defer func() { c.met.searchNS.Observe(time.Since(start).Nanoseconds()) }()
	kSites := pl.K()
	m := pl.Chunkings()
	resps, failed, err := gather[searchResp](ctx, c, opSearch, encode(queryToSearchReq(id, query, m, kSites)))
	tr.Lap("broadcast")
	if err != nil {
		return nil, err
	}

	ppc := 1
	if kSites == 1 {
		ppc = int((pl.ChunkBits() + 15) / 16)
	}
	rids, err := combineHits(resps, m, kSites, ppc, mode, pl.Params().Chunk)
	tr.Lap("combine")
	if err != nil {
		return nil, err
	}
	return c.answer(rids, failed)
}

// WordSearch broadcasts one word token to every node and returns the
// sorted RIDs of records whose word blob contains it — the [SWP00]
// word-search path. Exact: no false positives, no false negatives. When
// some node does not answer it returns an *IncompleteError, as Search.
func (c *Cluster) WordSearch(ctx context.Context, id FileID, token []byte) ([]uint64, error) {
	c.met.wordSearches.Inc()
	resps, failed, err := gather[wordSearchResp](ctx, c, opWordSearch, encode(wordSearchReq{file: id, token: token}))
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, resp := range resps {
		out = append(out, resp.rids...)
	}
	// While a migration is in flight both the source (frozen outgoing
	// set) and the target (absorbed copy) serve the moved records, so a
	// RID can be reported twice; collapse duplicates.
	slices.Sort(out)
	return c.answer(slices.Compact(out), failed)
}

// BucketInventory gathers every node's bucket stats for a file, sorted
// by address — an operator/debugging view.
func (c *Cluster) BucketInventory(ctx context.Context, id FileID) ([]BucketInfo, error) {
	results := transport.Broadcast(ctx, c.tr, c.place.Nodes(), opStats, []byte{byte(id)})
	var out []BucketInfo
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		resp, err := decode[statsResp](r.Payload)
		if err != nil {
			return nil, err
		}
		for _, b := range resp.buckets {
			out = append(out, BucketInfo{
				Node:  r.Node,
				Addr:  b.addr,
				Level: uint(b.level),
				Size:  int(b.size),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// BucketInfo describes one bucket's placement and load.
type BucketInfo struct {
	Node  transport.NodeID
	Addr  uint64
	Level uint
	Size  int
}
