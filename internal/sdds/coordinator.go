package sdds

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/lhstar"
	"repro/internal/transport"
)

// Coordinator is the split coordinator of the paper's LH*, the one site
// that knows each file's true state: it alone holds every file's
// FileState, the migration ledger and the census still owed, and it
// alone decides and drives splits and merges (DESIGN.md §14). It never
// writes client state and never reads a key. Today it runs in the
// client process: NewCluster builds one per Cluster, over the client's
// transport.
type Coordinator struct {
	tr    transport.Transport
	place *Placement

	// opsMu excludes structural changes (splits, merges, the census) from
	// normal operations: do holds it shared around each client op, the
	// coordinator exclusive. Without it a record could land in a bucket
	// mid-extraction, or a search miss one, silently.
	opsMu sync.RWMutex

	mu         sync.Mutex
	files      map[FileID]*FileState
	migResumes uint64 // resume drives performed by this process
	// recount lists the files whose record count awaits the nodes' census
	// (recountLocked); their split/merge plans wait until it is taken.
	recount []FileID

	// miglog journals every split/merge intent before its first RPC and
	// its outcome after the last, making growth resumable (DESIGN.md
	// §14). Defaults to an in-memory log; AttachMigrationLog installs a
	// durable one. Only mutated under opsMu exclusive.
	miglog MigrationLog

	met clusterMetrics // set by Cluster.Instrument before traffic; nil-safe
}

// FileState is the coordinator's state of one file.
type FileState struct {
	State          lhstar.State
	Size           int // total records: the load the split/merge rule reads
	MaxLoad        int // split threshold, records per bucket
	Splits, Merges int
}

// DefaultMaxLoad is the per-bucket split threshold.
const DefaultMaxLoad = 128

func newCoordinator(tr transport.Transport, place *Placement) *Coordinator {
	return &Coordinator{
		tr:     tr,
		place:  place,
		files:  make(map[FileID]*FileState),
		miglog: NewMemMigrationLog(),
	}
}

// AttachMigrationLog installs a durable migration log, replacing the
// default in-memory one. Must be called before any split or merge.
// Committed intents already in the log are folded into the file state
// (the log doubles as the coordinator's state journal — a restarted
// coordinator otherwise believes every file is back to one bucket); it
// returns the number of in-flight migrations found, which the caller
// should resolve with ResumeMigrations once nodes are up. The ledger
// holds no record counts: for every file it names, the nodes' census
// restores that (recountLocked); a fresh one names none. The migration
// counters start from the ledger's totals, as the in-flight gauge does.
func (c *Coordinator) AttachMigrationLog(lg MigrationLog) (inFlight int, err error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	if len(c.miglog.Records()) > 0 {
		return 0, fmt.Errorf("sdds: migration log must be attached before any split or merge")
	}
	recs := lg.Records()
	c.mu.Lock()
	for _, r := range recs {
		if r.Done && r.Outcome == MigrationCommitted {
			c.file(r.Intent.File).State = resultingState(r.Intent)
		}
		if !slices.Contains(c.recount, r.Intent.File) {
			c.recount = append(c.recount, r.Intent.File)
		}
	}
	c.miglog = lg
	c.mu.Unlock()
	s := migStatsOf(recs)
	c.met.migStarted.Add(s.Started)
	c.met.migCommitted.Add(s.Committed)
	c.met.migAborted.Add(s.Aborted)
	c.syncMigGauge()
	c.recountLocked(context.TODO()) // the kept signature takes no context
	return s.InFlight, nil
}

// recountLocked sets each file in c.recount to the record count its
// buckets hold, summed over every node's opStats answer. It waits until
// no migration is in flight: mid-migration the source and the target
// both hold the moved records, and the census would count them twice.
// A census that fails stays pending for the next resume drive; it fails
// nothing, because a census needs every node to answer and a lossy
// network rarely gives it that on the first try. Callers must hold opsMu
// exclusively, so no write is between its answers and its count.
func (c *Coordinator) recountLocked(ctx context.Context) {
	if c.miglog.InFlight() > 0 {
		return
	}
	c.mu.Lock()
	pending := slices.Clone(c.recount)
	c.mu.Unlock()
	for _, id := range pending {
		inv, err := bucketInventory(ctx, c.tr, c.place, id)
		if err != nil {
			continue
		}
		n := 0
		for _, b := range inv {
			n += b.Size
		}
		c.mu.Lock()
		c.file(id).Size = n
		c.recount = slices.DeleteFunc(c.recount, func(p FileID) bool { return p == id })
		c.mu.Unlock()
	}
}

// MigrationStats summarizes the migration ledger: durable counts from
// the journal plus this process's resume drives.
func (c *Coordinator) MigrationStats() MigrationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := migStatsOf(c.miglog.Records())
	s.Resumed = c.migResumes
	return s
}

func (c *Coordinator) file(id FileID) *FileState {
	f, ok := c.files[id]
	if !ok {
		f = &FileState{MaxLoad: DefaultMaxLoad}
		c.files[id] = f
	}
	return f
}

// SetMaxLoad adjusts a file's split threshold (records per bucket).
func (c *Coordinator) SetMaxLoad(id FileID, maxLoad int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxLoad > 0 {
		c.file(id).MaxLoad = maxLoad
	}
}

// File returns a copy of a file's state.
func (c *Coordinator) File(id FileID) FileState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *c.file(id)
}

// do is the bracket around every client op: op runs in the shared
// section, where no split, merge or census runs. files are what op
// writes (a read passes none), with the record-count deltas op set; do
// adds them before it leaves the section, as a census taken in between
// would count the write twice. Then it settles each file, or, when op or
// a settle failed, thaws them.
func (c *Coordinator) do(ctx context.Context, files []writeFile, op func() error) error {
	c.opsMu.RLock()
	err := op()
	for _, w := range files {
		c.mu.Lock()
		c.file(w.id).Size += w.delta
		c.mu.Unlock()
	}
	c.opsMu.RUnlock()
	for i := 0; i < len(files) && err == nil; i++ {
		err = c.settle(ctx, files[i].id, files[i].del)
	}
	if err != nil {
		return c.thaw(ctx, err, files)
	}
	return nil
}

// settle restores a written file's load invariant: after puts it splits
// until the file fits (one batch can overflow it by more than a bucket),
// after deletes it merges while the file has shrunk enough. Each step
// asks the plan first under c.mu alone, so a write that needs neither
// never stalls the others.
func (c *Coordinator) settle(ctx context.Context, id FileID, del bool) error {
	plan := splitPlan
	if del {
		plan = mergePlan
	}
	for {
		c.mu.Lock()
		_, wanted := plan(c.file(id))
		c.mu.Unlock()
		if !wanted {
			return nil
		}
		if done, err := c.migrate(ctx, id, plan); err != nil || done {
			return err
		}
	}
}

// thaw is the failed-op path; a read (no files) owes nothing. A write's
// record-count change is unknown (a node may have applied its entries
// and then failed), so its files are marked for a census, taken at the
// next resume drive. The write may also have stalled its file's
// migration in flight, or been refused by the bucket such a migration
// froze: re-driving the file's in-flight migrations lets the caller's
// re-run of the write succeed. It returns cause, joined with the
// re-drive's own failure.
//
// The re-drive takes opsMu exclusively, stalling every concurrent op,
// so it skips what cannot help: with no migration in flight there is
// nothing to do, and a migration with a participant the write just
// failed to reach would fail again. During an outage, re-driving on
// every failed write turned each into a cluster-wide stall against the
// dead participant.
func (c *Coordinator) thaw(ctx context.Context, cause error, files []writeFile) error {
	c.mu.Lock()
	for _, w := range files {
		if !slices.Contains(c.recount, w.id) {
			c.recount = append(c.recount, w.id)
		}
	}
	lg := c.miglog
	c.mu.Unlock()
	if len(files) == 0 || lg.InFlight() == 0 {
		return cause
	}
	lost := lostNodes(cause)
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	_, err := c.resumeLocked(ctx, func(in MigrationIntent) bool {
		return slices.ContainsFunc(files, func(w writeFile) bool { return w.id == in.File }) &&
			!slices.Contains(lost, c.place.NodeOf(in.From)) && !slices.Contains(lost, c.place.NodeOf(in.To))
	})
	if err != nil {
		return errors.Join(cause, err)
	}
	return cause
}

// lostNodes lists the nodes a failed write round could not reach: its
// failures that are not a node's own answer.
func lostNodes(err error) []transport.NodeID {
	var be *BatchError
	if !errors.As(err, &be) {
		return nil
	}
	var lost []transport.NodeID
	for _, f := range be.Failures {
		if !isDefinitive(f.Err) {
			lost = append(lost, f.Node)
		}
	}
	return lost
}

// splitPlan grows an overloaded file by one LH* split: the bucket the
// split pointer names moves its upper half to the new bucket.
func splitPlan(f *FileState) (MigrationIntent, bool) {
	if !f.State.Overloaded(f.Size, f.MaxLoad) {
		return MigrationIntent{}, false
	}
	from, to := f.State.NextSplit()
	return MigrationIntent{Kind: MigrateSplit, From: from, To: to, Level: uint8(f.State.BucketLevel(from))}, true
}

// mergePlan shrinks an underloaded file by one bucket: the last split's
// bucket closes and its records return to the surviving partner. Once
// it commits, clients seeing File's merge count move take a new image:
// a shrunken file can otherwise leave images pointing at buckets that
// no longer exist (LH* shrinking needs the coordinator for this).
func mergePlan(f *FileState) (MigrationIntent, bool) {
	st := f.State
	if !st.Underloaded(f.Size, f.MaxLoad) || !st.RetreatSplit() {
		return MigrationIntent{}, false
	}
	// Both buckets sit at level st.I+1, the level the split that created
	// the closing bucket raised them to.
	return MigrationIntent{Kind: MigrateMerge, From: st.N + 1<<st.I, To: st.N, Level: uint8(st.I + 1)}, true
}

// migrate runs at most one structural change of a file as a two-phase
// migration, the same way for growth and shrink: settle whatever
// migration of the file is still in flight (so a file never has two),
// take any census owed, let plan decide (under c.mu, from the file's
// current state) which buckets move — or that nothing needs to,
// reported as done — then journal the intent BEFORE the first RPC, so a
// restarted coordinator knows the move may be half-done on the nodes,
// and drive it: prepare the outgoing records on the source (which keeps
// serving them), durably absorb them at the target, then commit both
// sides (DESIGN.md §14). While the file's census is still owed its count
// is unknown, so the plan waits, reported as done.
func (c *Coordinator) migrate(ctx context.Context, id FileID, plan func(f *FileState) (MigrationIntent, bool)) (done bool, err error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	if _, err := c.resumeLocked(ctx, func(in MigrationIntent) bool { return in.File == id }); err != nil {
		return false, err
	}
	c.mu.Lock()
	f := c.file(id)
	intent, wanted := plan(f)
	wanted = wanted && !slices.Contains(c.recount, id)
	intent.File, intent.PrevState = id, f.State
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
func (c *Coordinator) driveMigrationLocked(ctx context.Context, intent MigrationIntent) error {
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
// Clients keep their lagging image across a split, so the real LH*
// path — server forwarding plus IAMs — runs on every run, as for a
// remote client; a merge they learn of through File. Callers must hold
// opsMu exclusively.
func (c *Coordinator) finishCommitLocked(ctx context.Context, intent MigrationIntent, sourceDone bool) error {
	if err := c.sendFinishLocked(ctx, intent, opMigrateCommit, sourceDone); err != nil {
		return err
	}
	if err := c.miglog.Finish(intent.MID, MigrationCommitted); err != nil {
		return err
	}
	c.met.migCommitted.Inc()
	c.mu.Lock()
	f := c.file(intent.File)
	f.State = resultingState(intent)
	if intent.Kind == MigrateSplit {
		f.Splits++
		c.met.splits.Inc()
	} else {
		f.Merges++
		c.met.merges.Inc()
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
func (c *Coordinator) sendFinishLocked(ctx context.Context, intent MigrationIntent, op uint8, sourceDone bool) error {
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
func (c *Coordinator) abortMigrationLocked(ctx context.Context, intent MigrationIntent, cause error) error {
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

// resumeLocked re-drives, in migration-ID order, each in-flight
// migration want selects (or aborts it when a participant definitively
// rejects), then takes any census owed. It returns how many it drove and
// the first drive's failure. Callers must hold opsMu exclusively.
func (c *Coordinator) resumeLocked(ctx context.Context, want func(MigrationIntent) bool) (resumed int, err error) {
	for _, r := range c.miglog.Records() {
		if r.Done || !want(r.Intent) {
			continue
		}
		resumed++
		c.met.migResumed.Inc()
		c.mu.Lock()
		c.migResumes++
		c.mu.Unlock()
		if derr := c.driveMigrationLocked(ctx, r.Intent); derr != nil && err == nil {
			err = fmt.Errorf("sdds: resuming migration %d: %w", r.Intent.MID, derr)
		}
	}
	c.recountLocked(ctx)
	return resumed, err
}

// ResumeMigrations rolls every in-flight migration in the log forward
// (or aborts it) and returns how many were resumed, then takes any
// census owed. A restarted coordinator calls this after
// AttachMigrationLog once nodes are reachable; the Supervisor calls it
// when the cluster turns healthy.
func (c *Coordinator) ResumeMigrations(ctx context.Context) (int, error) {
	c.opsMu.Lock()
	defer c.opsMu.Unlock()
	return c.resumeLocked(ctx, func(MigrationIntent) bool { return true })
}

// syncMigGauge publishes the in-flight migration count from the log —
// the durable ground truth — so the gauge survives coordinator
// restarts along with it.
func (c *Coordinator) syncMigGauge() {
	if c.met.migInFlight == nil {
		return
	}
	c.met.migInFlight.Set(int64(c.miglog.InFlight()))
}

// bucketInventory gathers every node's bucket stats for a file, sorted
// by address: the census the coordinator counts, and the client's
// BucketInventory.
func bucketInventory(ctx context.Context, tr transport.Transport, place *Placement, id FileID) ([]BucketInfo, error) {
	results := transport.Broadcast(ctx, tr, place.Nodes(), opStats, []byte{byte(id)})
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
