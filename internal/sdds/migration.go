// Two-phase bucket migration: the node-side protocol that makes LH*
// file growth and shrink crash-safe (DESIGN.md §14).
//
// Moving records destructively in a single round trip — the source
// deletes its half and hands the records back only in the RPC response
// — silently loses acknowledged records on a lost response, a
// coordinator crash between steps, or a middleware re-send. The
// migration protocol is a migration-ID-keyed handoff instead:
//
//	prepare (source)  journal the moved set as *outgoing*, keep every
//	                  record and keep serving reads, return a copy.
//	absorb  (target)  durably land the records, keyed by migration ID —
//	                  idempotent on retry.
//	commit  (both)    source drops the outgoing set and raises/closes
//	                  the bucket; target keeps what it absorbed.
//	abort   (both)    source forgets the intent (nothing ever left);
//	                  target discards exactly what it absorbed.
//
// Buckets party to an in-flight migration reject writes loudly (reads
// and searches are served throughout); the coordinator already
// serializes its own client traffic against splits, so the rejection
// only fires across coordinators or during resume — and then the
// failure is visible, never silent loss. Every step is journaled
// before it is applied and the full migration ledger rides inside the
// node image, so a restarted participant answers retries and resumed
// drives with its durable outcome.
package sdds

import (
	"fmt"
	"sort"

	"repro/internal/lhstar"
)

// Migration kinds.
const (
	migrateSplit uint8 = 1 // records move from a splitting bucket to its new image
	migrateMerge uint8 = 2 // a closing bucket's records move back to the surviving partner
)

// Prepare response statuses.
const (
	migrateStatusOK        uint8 = 1 // outgoing set prepared (batch attached)
	migrateStatusCommitted uint8 = 2 // migration already committed durably
	migrateStatusAborted   uint8 = 3 // migration already aborted durably
)

// Durable outcomes in a node's migration ledger. Numerically identical
// to the coordinator journal's MigrationOutcome values.
const (
	migOutcomeCommitted uint8 = 1
	migOutcomeAborted   uint8 = 2
)

// migRecord is one side of an in-flight migration as a node tracks it:
// the addressing header plus the exact (sorted) key set the migration
// moves. On the source it is the outgoing set; on the target, the
// absorbed set.
type migRecord struct {
	migrateHeader
	keys []uint64
}

// migDone records the durable outcome of a finished migration — the
// idempotency ledger that lets a node answer delayed or retried
// migration traffic long after the buckets moved on.
type migDone struct {
	mid     uint64
	outcome uint8
}

// migLock marks a bucket as party to an in-flight migration; writes to
// it are rejected until migUnlock. Callers must hold the node lock.
func (f *nodeFile) migLock(addr, mid uint64) {
	if f.migLocked == nil {
		f.migLocked = make(map[uint64]uint64)
	}
	f.migLocked[addr] = mid
}

func (f *nodeFile) migUnlock(addr uint64) {
	delete(f.migLocked, addr)
}

// migBlocked returns a loud error when the bucket is frozen by an
// in-flight migration. The nil-map lookup keeps the steady-state cost
// of the check at a single map probe on an (almost always) nil map.
func (f *nodeFile) migBlocked(file FileID, addr uint64) error {
	if mid, ok := f.migLocked[addr]; ok {
		return fmt.Errorf("sdds: bucket %d of file %d is frozen by in-flight migration %d; retry after it commits or aborts", addr, file, mid)
	}
	return nil
}

func migStatusOf(outcome uint8) uint8 {
	if outcome == migOutcomeCommitted {
		return migrateStatusCommitted
	}
	return migrateStatusAborted
}

// prepareMovedKeysLocked validates a prepare header against the local
// bucket state — rejecting loudly any mismatch between the
// coordinator's expectation and reality — and returns the sorted key
// set the migration moves. It does not mutate anything; handler and
// replay both call it before applying. Callers must hold the write
// lock.
func (n *Node) prepareMovedKeysLocked(f *nodeFile, hdr migrateHeader) ([]uint64, error) {
	b, ok := f.buckets[hdr.from]
	if !ok {
		return nil, fmt.Errorf("sdds: migration %d: node %d has no bucket %d of file %d", hdr.mid, n.id, hdr.from, hdr.file)
	}
	if b.Level() != uint(hdr.level) {
		return nil, fmt.Errorf("sdds: migration %d: bucket %d of file %d is at level %d, coordinator expected %d", hdr.mid, hdr.from, hdr.file, b.Level(), hdr.level)
	}
	if locker, ok := f.migLocked[hdr.from]; ok && locker != hdr.mid {
		return nil, fmt.Errorf("sdds: migration %d: bucket %d of file %d already frozen by migration %d", hdr.mid, hdr.from, hdr.file, locker)
	}
	var keys []uint64
	switch hdr.kind {
	case migrateSplit:
		if want := hdr.from + 1<<hdr.level; hdr.to != want {
			return nil, fmt.Errorf("sdds: migration %d: split of bucket %d at level %d must target %d, coordinator sent %d", hdr.mid, hdr.from, hdr.level, want, hdr.to)
		}
		mod := uint64(1) << (hdr.level + 1)
		b.Scan(func(key uint64, _ []byte) bool {
			if key%mod == hdr.to {
				keys = append(keys, key)
			}
			return true
		})
	case migrateMerge:
		if hdr.level == 0 {
			return nil, fmt.Errorf("sdds: migration %d: cannot merge a level-0 bucket", hdr.mid)
		}
		if want := hdr.to + 1<<(hdr.level-1); hdr.from != want {
			return nil, fmt.Errorf("sdds: migration %d: merge into bucket %d at level %d must close %d, coordinator sent %d", hdr.mid, hdr.to, hdr.level, want, hdr.from)
		}
		b.Scan(func(key uint64, _ []byte) bool {
			keys = append(keys, key)
			return true
		})
	default:
		return nil, fmt.Errorf("sdds: migration %d: unknown kind %d", hdr.mid, hdr.kind)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// migBatchLocked rebuilds the record batch of an outgoing set from the
// live bucket. Deterministic across retries: the bucket is frozen for
// writes while the migration is in flight. Callers must hold the node
// lock.
func (n *Node) migBatchLocked(f *nodeFile, rec *migRecord) (recordBatch, error) {
	b, ok := f.buckets[rec.from]
	if !ok {
		return recordBatch{}, fmt.Errorf("sdds: migration %d: outgoing bucket %d of file %d vanished from node %d", rec.mid, rec.from, rec.file, n.id)
	}
	var batch recordBatch
	for _, k := range rec.keys {
		v, ok := b.Get(k)
		if !ok {
			return recordBatch{}, fmt.Errorf("sdds: migration %d: outgoing key %d missing from frozen bucket %d", rec.mid, k, rec.from)
		}
		batch.records = append(batch.records, kv{key: k, value: v})
	}
	return batch, nil
}

func (n *Node) handleMigratePrepare(payload []byte) ([]byte, error) {
	m, err := decode[migrateHeader](payload)
	if err != nil {
		return nil, err
	}
	f := n.getFile(m.file)
	n.mu.Lock()
	defer n.mu.Unlock()
	if outcome, ok := n.migDone[m.mid]; ok {
		return encode(migratePrepareResp{status: migStatusOf(outcome)}), nil
	}
	if rec, ok := n.outgoing[m.mid]; ok {
		// Idempotent re-prepare: the frozen bucket makes rebuilding the
		// batch from the saved key set deterministic.
		batch, err := n.migBatchLocked(f, rec)
		if err != nil {
			return nil, err
		}
		return encode(migratePrepareResp{status: migrateStatusOK, batch: batch}), nil
	}
	if _, err := n.prepareMovedKeysLocked(f, m); err != nil {
		return nil, err
	}
	if err := n.journalLocked(opMigratePrepare, payload); err != nil {
		return nil, err
	}
	if err := n.applyMigratePrepareLocked(m); err != nil {
		return nil, err
	}
	batch, err := n.migBatchLocked(f, n.outgoing[m.mid])
	if err != nil {
		return nil, err
	}
	return encode(migratePrepareResp{status: migrateStatusOK, batch: batch}), n.maybeCheckpointLocked()
}

// applyMigratePrepareLocked records the outgoing set and freezes the
// source bucket — shared by the live handler (post-journal) and WAL
// replay. Callers must hold the write lock.
func (n *Node) applyMigratePrepareLocked(m migrateHeader) error {
	f := n.fileLocked(m.file)
	keys, err := n.prepareMovedKeysLocked(f, m)
	if err != nil {
		return err
	}
	n.outgoing[m.mid] = &migRecord{migrateHeader: m, keys: keys}
	f.migLock(m.from, m.mid)
	return nil
}

func (n *Node) handleMigrateAbsorb(payload []byte) ([]byte, error) {
	m, err := decode[migrateAbsorbReq](payload)
	if err != nil {
		return nil, err
	}
	f := n.getFile(m.file)
	n.mu.Lock()
	defer n.mu.Unlock()
	// Finished or already-absorbed IDs ack without re-applying — the
	// idempotency that makes absorb safe to retry (and harmless when a
	// delayed duplicate lands after the coordinator moved on).
	if _, ok := n.migDone[m.mid]; ok {
		return nil, nil
	}
	if _, ok := n.absorbed[m.mid]; ok {
		return nil, nil
	}
	if err := n.checkAbsorbLocked(f, m); err != nil {
		return nil, err
	}
	if err := n.journalLocked(opMigrateAbsorb, payload); err != nil {
		return nil, err
	}
	if err := n.applyMigrateAbsorbLocked(m); err != nil {
		return nil, err
	}
	return nil, n.maybeCheckpointLocked()
}

// checkAbsorbLocked validates an absorb against local state without
// mutating it, so validation failures surface before the journal write.
func (n *Node) checkAbsorbLocked(f *nodeFile, m migrateAbsorbReq) error {
	switch m.kind {
	case migrateSplit:
		if want := m.from + 1<<m.level; m.to != want {
			return fmt.Errorf("sdds: migration %d: split absorb into bucket %d does not match source %d at level %d", m.mid, m.to, m.from, m.level)
		}
		if _, exists := f.buckets[m.to]; exists {
			return fmt.Errorf("sdds: migration %d: split target bucket %d of file %d already exists on node %d", m.mid, m.to, m.file, n.id)
		}
	case migrateMerge:
		b, ok := f.buckets[m.to]
		if !ok {
			return fmt.Errorf("sdds: migration %d: node %d has no merge target bucket %d of file %d", m.mid, n.id, m.to, m.file)
		}
		if m.level == 0 || b.Level() != uint(m.level) {
			return fmt.Errorf("sdds: migration %d: merge target bucket %d is at level %d, coordinator expected %d", m.mid, m.to, b.Level(), m.level)
		}
		if want := m.to + 1<<(m.level-1); m.from != want {
			return fmt.Errorf("sdds: migration %d: merge absorb from bucket %d does not match target %d at level %d", m.mid, m.from, m.to, m.level)
		}
		if err := f.migBlocked(m.file, m.to); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sdds: migration %d: unknown kind %d", m.mid, m.kind)
	}
	return nil
}

// applyMigrateAbsorbLocked lands the batch, records the absorbed set,
// and freezes the target bucket until commit/abort — shared by the
// live handler and WAL replay. Callers must hold the write lock.
func (n *Node) applyMigrateAbsorbLocked(m migrateAbsorbReq) error {
	f := n.fileLocked(m.file)
	keys := make([]uint64, 0, len(m.batch.records))
	switch m.kind {
	case migrateSplit:
		b := lhstar.NewBucket(m.to, uint(m.level)+1)
		for _, r := range m.batch.records {
			b.Put(r.key, r.value)
			keys = append(keys, r.key)
		}
		f.buckets[m.to] = b
		f.indexPutBatch(m.batch.records)
	case migrateMerge:
		b, ok := f.buckets[m.to]
		if !ok {
			return fmt.Errorf("sdds: migration %d: node %d has no merge target bucket %d of file %d", m.mid, n.id, m.to, m.file)
		}
		src := lhstar.NewBucket(m.from, uint(m.level))
		for _, r := range m.batch.records {
			src.Put(r.key, r.value)
			keys = append(keys, r.key)
		}
		if err := b.MergeFrom(src); err != nil {
			return err
		}
		f.indexPutBatch(m.batch.records)
	default:
		return fmt.Errorf("sdds: migration %d: unknown kind %d", m.mid, m.kind)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n.absorbed[m.mid] = &migRecord{migrateHeader: m.migrateHeader, keys: keys}
	f.migLock(m.to, m.mid)
	return nil
}

func (n *Node) handleMigrateCommit(payload []byte) ([]byte, error) {
	m, err := decode[migrateFinishReq](payload)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if outcome, ok := n.migDone[m.mid]; ok {
		if outcome == migOutcomeCommitted {
			return nil, nil
		}
		return nil, fmt.Errorf("sdds: migration %d was aborted on node %d; refusing commit", m.mid, n.id)
	}
	_, src := n.outgoing[m.mid]
	_, dst := n.absorbed[m.mid]
	if !src && !dst {
		return nil, fmt.Errorf("sdds: migration %d unknown on node %d: commit without prepare or absorb", m.mid, n.id)
	}
	if err := n.journalLocked(opMigrateCommit, payload); err != nil {
		return nil, err
	}
	if err := n.applyMigrateCommitLocked(m); err != nil {
		return nil, err
	}
	return nil, n.maybeCheckpointLocked()
}

// applyMigrateCommitLocked finalizes a migration on every side this
// node played — when placement puts source and target buckets on the
// same node, one commit settles both roles. The source applies the
// destructive half it deferred at prepare (drop the moved keys / close
// the bucket); the target simply keeps what it absorbed. Callers must
// hold the write lock.
func (n *Node) applyMigrateCommitLocked(m migrateFinishReq) error {
	applied := false
	// When this node is both source and target (placement collision) the
	// moved records stay local: their postings — one set per key, shared
	// across the node's buckets — must survive the source-side cleanup.
	_, alsoTarget := n.absorbed[m.mid]
	if rec, ok := n.outgoing[m.mid]; ok {
		f := n.fileLocked(rec.file)
		b, ok := f.buckets[rec.from]
		if !ok {
			return fmt.Errorf("sdds: migration %d: outgoing bucket %d of file %d vanished from node %d", rec.mid, rec.from, rec.file, n.id)
		}
		switch rec.kind {
		case migrateSplit:
			dst := lhstar.NewBucket(rec.to, uint(rec.level)+1)
			if _, err := b.SplitInto(dst); err != nil {
				return err
			}
			if err := verifyMovedKeys(rec, dst); err != nil {
				return err
			}
			if !alsoTarget {
				dst.Scan(func(key uint64, _ []byte) bool {
					f.indexDelete(key)
					return true
				})
			}
		case migrateMerge:
			if !alsoTarget {
				b.Scan(func(key uint64, _ []byte) bool {
					f.indexDelete(key)
					return true
				})
			}
			delete(f.buckets, rec.from)
		}
		f.migUnlock(rec.from)
		delete(n.outgoing, m.mid)
		applied = true
	}
	if rec, ok := n.absorbed[m.mid]; ok {
		f := n.fileLocked(rec.file)
		f.migUnlock(rec.to)
		delete(n.absorbed, m.mid)
		applied = true
	}
	if !applied {
		return fmt.Errorf("sdds: migration %d unknown on node %d during commit", m.mid, n.id)
	}
	n.migDone[m.mid] = migOutcomeCommitted
	return nil
}

func (n *Node) handleMigrateAbort(payload []byte) ([]byte, error) {
	m, err := decode[migrateFinishReq](payload)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if outcome, ok := n.migDone[m.mid]; ok {
		if outcome == migOutcomeAborted {
			return nil, nil
		}
		return nil, fmt.Errorf("sdds: migration %d was committed on node %d; refusing abort", m.mid, n.id)
	}
	if err := n.journalLocked(opMigrateAbort, payload); err != nil {
		return nil, err
	}
	if err := n.applyMigrateAbortLocked(m); err != nil {
		return nil, err
	}
	return nil, n.maybeCheckpointLocked()
}

// applyMigrateAbortLocked undoes a migration: the source just forgets
// the intent (no record ever left its bucket — abort trivially restores
// it); the target surgically removes exactly the absorbed set. An abort
// for an ID this node never saw still poisons the ledger, so a delayed
// prepare or absorb arriving later cannot resurrect the migration.
// Callers must hold the write lock.
func (n *Node) applyMigrateAbortLocked(m migrateFinishReq) error {
	// Same-node dual role: when the source bucket is local too, the
	// records the target discards still live in the (never-mutated)
	// source bucket, so their postings must survive the undo.
	_, alsoSource := n.outgoing[m.mid]
	if rec, ok := n.outgoing[m.mid]; ok {
		// Records never left the frozen bucket; forgetting the intent is
		// the whole undo. A same-node absorbed role (placement collision)
		// is handled below before the outcome is recorded.
		f := n.fileLocked(rec.file)
		f.migUnlock(rec.from)
		delete(n.outgoing, m.mid)
	}
	if rec, ok := n.absorbed[m.mid]; ok {
		f := n.fileLocked(rec.file)
		b, bok := f.buckets[rec.to]
		if !bok {
			return fmt.Errorf("sdds: migration %d: absorbed bucket %d of file %d vanished from node %d", rec.mid, rec.to, rec.file, n.id)
		}
		switch rec.kind {
		case migrateSplit:
			// The whole bucket was created by the absorb and frozen since;
			// its contents must be exactly the absorbed set.
			if err := verifyMovedKeys(rec, b); err != nil {
				return err
			}
			if !alsoSource {
				b.Scan(func(key uint64, _ []byte) bool {
					f.indexDelete(key)
					return true
				})
			}
			delete(f.buckets, rec.to)
		case migrateMerge:
			// Re-extract: raising the level back pulls out exactly the keys
			// that belong to the closed bucket — the absorbed set, since
			// the bucket was frozen for writes.
			dst := lhstar.NewBucket(rec.from, uint(rec.level))
			if _, err := b.SplitInto(dst); err != nil {
				return err
			}
			if err := verifyMovedKeys(rec, dst); err != nil {
				return err
			}
			if !alsoSource {
				dst.Scan(func(key uint64, _ []byte) bool {
					f.indexDelete(key)
					return true
				})
			}
		}
		f.migUnlock(rec.to)
		delete(n.absorbed, m.mid)
		n.migDone[m.mid] = migOutcomeAborted
		return nil
	}
	n.migDone[m.mid] = migOutcomeAborted
	return nil
}

// verifyMovedKeys asserts that a bucket's key set is exactly the
// migration's recorded key set — the invariant the write freeze
// guarantees. A mismatch means records appeared or vanished inside a
// frozen bucket; failing loudly beats silently dropping them.
func verifyMovedKeys(rec *migRecord, b *lhstar.Bucket) error {
	var got []uint64
	b.Scan(func(key uint64, _ []byte) bool {
		got = append(got, key)
		return true
	})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(rec.keys) {
		return fmt.Errorf("sdds: migration %d: frozen bucket holds %d keys, migration recorded %d", rec.mid, len(got), len(rec.keys))
	}
	for i := range got {
		if got[i] != rec.keys[i] {
			return fmt.Errorf("sdds: migration %d: frozen bucket key set diverged at key %d (recorded %d)", rec.mid, got[i], rec.keys[i])
		}
	}
	return nil
}

// migImageLocked serializes the node's migration ledger for the node
// image, sorted by migration ID for deterministic encoding. Callers
// must hold the node lock (shared suffices).
func (n *Node) migImageLocked() migrationImage {
	var img migrationImage
	img.outgoing = sortedMigRecords(n.outgoing)
	img.absorbed = sortedMigRecords(n.absorbed)
	if len(n.migDone) > 0 {
		img.done = make([]migDone, 0, len(n.migDone))
		for mid, outcome := range n.migDone {
			img.done = append(img.done, migDone{mid: mid, outcome: outcome})
		}
		sort.Slice(img.done, func(i, j int) bool { return img.done[i].mid < img.done[j].mid })
	}
	return img
}

func sortedMigRecords(m map[uint64]*migRecord) []migRecord {
	if len(m) == 0 {
		return nil
	}
	out := make([]migRecord, 0, len(m))
	for _, rec := range m {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mid < out[j].mid })
	return out
}

// adoptMigImageLocked replaces the node's migration ledger with the one
// from a restored image and re-freezes the buckets of every in-flight
// migration. Callers must hold the write lock, with n.files already
// holding the restored buckets.
func (n *Node) adoptMigImageLocked(img migrationImage) {
	n.outgoing = make(map[uint64]*migRecord, len(img.outgoing))
	n.absorbed = make(map[uint64]*migRecord, len(img.absorbed))
	n.migDone = make(map[uint64]uint8, len(img.done))
	for i := range img.outgoing {
		rec := img.outgoing[i]
		n.outgoing[rec.mid] = &rec
		n.fileLocked(rec.file).migLock(rec.from, rec.mid)
	}
	for i := range img.absorbed {
		rec := img.absorbed[i]
		n.absorbed[rec.mid] = &rec
		n.fileLocked(rec.file).migLock(rec.to, rec.mid)
	}
	for _, d := range img.done {
		n.migDone[d.mid] = d.outcome
	}
}
