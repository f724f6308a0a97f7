package sdds

// The migration fault matrix: crash points and lost messages across
// every role (coordinator, source node, target node) of the two-phase
// split/merge protocol, asserting the DESIGN.md §14 guarantees — zero
// acknowledged-record loss, zero duplication, searches served
// throughout, and a ledger whose Started always equals
// Committed + Aborted + InFlight.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wordindex"
)

// hookTr wraps a transport with injectable per-message faults: a
// "before" hook failing a send without delivering it (request lost),
// and an "after" hook failing it after the handler ran (the
// acknowledged-but-unconfirmed window every two-phase step must
// survive).
type hookTr struct {
	inner transport.Transport

	mu     sync.Mutex
	before func(node transport.NodeID, op uint8) error
	after  func(node transport.NodeID, op uint8) error
}

func (h *hookTr) setBefore(f func(transport.NodeID, uint8) error) {
	h.mu.Lock()
	h.before = f
	h.mu.Unlock()
}

func (h *hookTr) setAfter(f func(transport.NodeID, uint8) error) {
	h.mu.Lock()
	h.after = f
	h.mu.Unlock()
}

func (h *hookTr) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	h.mu.Lock()
	before, after := h.before, h.after
	h.mu.Unlock()
	if before != nil {
		if err := before(node, op); err != nil {
			return nil, err
		}
	}
	resp, err := h.inner.Send(ctx, node, op, payload)
	if err != nil {
		return nil, err
	}
	if after != nil {
		if err := after(node, op); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func (h *hookTr) Close() error { return h.inner.Close() }

// split runs one split of the file, if it is overloaded.
func (c *Coordinator) split(ctx context.Context, id FileID) error {
	_, err := c.migrate(ctx, id, splitPlan)
	return err
}

// dropOnce fails the first matching (node, op) send with a plain
// transport error — the non-definitive outcome-unknown failure.
func dropOnce(node transport.NodeID, op uint8) func(transport.NodeID, uint8) error {
	var mu sync.Mutex
	fired := false
	return func(n transport.NodeID, o uint8) error {
		mu.Lock()
		defer mu.Unlock()
		if fired || n != node || o != op {
			return nil
		}
		fired = true
		return fmt.Errorf("injected: message for op %d to node %d lost", o, n)
	}
}

// rejectOnce fails the first matching (node, op) send with a
// *transport.RemoteError — a definitive handler rejection, the signal
// the coordinator is allowed to abort on.
func rejectOnce(node transport.NodeID, op uint8) func(transport.NodeID, uint8) error {
	var mu sync.Mutex
	fired := false
	return func(n transport.NodeID, o uint8) error {
		mu.Lock()
		defer mu.Unlock()
		if fired || n != node || o != op {
			return nil
		}
		fired = true
		return &transport.RemoteError{Node: n, Msg: "injected rejection"}
	}
}

// migHarness is a two-node cluster with durable (MemFS-backed) node
// stores, a durable coordinator migration journal, and a fault hook on
// the coordinator's transport. Round-robin placement puts bucket 0 on
// node 0 and bucket 1 on node 1, so the first split and the merge
// undoing it are both cross-node handoffs.
type migHarness struct {
	t     *testing.T
	mem   *transport.Memory
	hook  *hookTr
	place *Placement
	fss   map[transport.NodeID]*wal.MemFS
	nodes map[transport.NodeID]*Node
	logFS *wal.MemFS
	lg    *FileMigrationLog
	c     *Cluster
	opts  wal.Options // every node store's options
}

func newMigHarness(t *testing.T, n int) *migHarness {
	t.Helper()
	return newMigHarnessOpts(t, n, wal.Options{})
}

// newMigHarnessOpts is newMigHarness with the node stores opened under
// opts (a tiny CheckpointBytes makes every mutation checkpoint).
func newMigHarnessOpts(t *testing.T, n int, opts wal.Options) *migHarness {
	t.Helper()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	h := &migHarness{
		t:     t,
		mem:   transport.NewMemory(),
		place: place,
		fss:   make(map[transport.NodeID]*wal.MemFS),
		nodes: make(map[transport.NodeID]*Node),
		logFS: wal.NewMemFS(),
		opts:  opts,
	}
	h.hook = &hookTr{inner: h.mem}
	for _, id := range ids {
		h.startNode(id)
	}
	h.newCoordinator()
	return h
}

// startNode (re)starts a node over its durable store: the first call
// boots it fresh, later calls model a crashed process restarting over
// whatever its journal made durable.
func (h *migHarness) startNode(id transport.NodeID) {
	h.t.Helper()
	fs, ok := h.fss[id]
	if !ok {
		fs = wal.NewMemFS()
		h.fss[id] = fs
	} else {
		fs.Restart()
	}
	node := NewNode(id, h.mem, h.place)
	st, err := wal.Open(fs, "node", h.opts)
	if err != nil {
		h.t.Fatalf("opening node %d store: %v", id, err)
	}
	if _, err := node.AttachStore(st); err != nil {
		h.t.Fatalf("attaching node %d store: %v", id, err)
	}
	h.mem.Register(id, node.Handler())
	h.nodes[id] = node
}

// newCoordinator (re)builds the coordinator over the shared durable
// migration journal; called a second time it is the restarted-
// coordinator path, returning how many migrations the journal says are
// still in flight.
func (h *migHarness) newCoordinator() int {
	h.t.Helper()
	if h.lg != nil {
		h.lg.Close()
	}
	lg, err := OpenFileMigrationLog(h.logFS, "coordinator")
	if err != nil {
		h.t.Fatalf("opening migration log: %v", err)
	}
	c := NewCluster(h.hook, h.place)
	inFlight, err := c.AttachMigrationLog(lg)
	if err != nil {
		h.t.Fatalf("attaching migration log: %v", err)
	}
	h.lg, h.c = lg, c
	return inFlight
}

// load inserts n keys without triggering growth and returns the
// acknowledged truth the fault matrix audits against.
func (h *migHarness) load(id FileID, n int) map[uint64][]byte {
	h.t.Helper()
	h.c.SetMaxLoad(id, 1<<20)
	ctx := context.Background()
	keys := make(map[uint64][]byte, n)
	for k := uint64(0); k < uint64(n); k++ {
		v := []byte(fmt.Sprintf("migval-%03d", k))
		if err := h.c.Put(ctx, id, k, v); err != nil {
			h.t.Fatalf("put %d: %v", k, err)
		}
		keys[k] = v
	}
	return keys
}

// checkAll asserts zero loss and zero duplication: every acknowledged
// key reads back its value, and across all node buckets every key is
// stored exactly once with no strays.
func (h *migHarness) checkAll(id FileID, keys map[uint64][]byte) {
	h.t.Helper()
	ctx := context.Background()
	for k, want := range keys {
		v, ok, err := h.c.Get(ctx, id, k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			h.t.Fatalf("get %d = %q, %v, %v (want %q)", k, v, ok, err, want)
		}
	}
	counts := make(map[uint64]int)
	for _, n := range h.nodes {
		n.mu.RLock()
		if f, ok := n.files[id]; ok {
			for _, b := range f.buckets {
				b.Scan(func(key uint64, _ []byte) bool {
					counts[key]++
					return true
				})
			}
		}
		n.mu.RUnlock()
	}
	for k := range keys {
		if counts[k] != 1 {
			h.t.Fatalf("key %d stored %d times across the cluster", k, counts[k])
		}
	}
	for k := range counts {
		if _, ok := keys[k]; !ok {
			h.t.Fatalf("cluster holds unacknowledged key %d", k)
		}
	}
}

func (h *migHarness) wantStats(started, committed, aborted uint64, inFlight int) {
	h.t.Helper()
	s := h.c.coord.MigrationStats()
	if s.Started != started || s.Committed != committed || s.Aborted != aborted || s.InFlight != inFlight {
		h.t.Fatalf("MigrationStats = %+v, want started %d committed %d aborted %d in-flight %d",
			s, started, committed, aborted, inFlight)
	}
	h.wantInvariant()
}

func (h *migHarness) wantInvariant() {
	h.t.Helper()
	s := h.c.coord.MigrationStats()
	if s.Started != s.Committed+s.Aborted+uint64(s.InFlight) {
		h.t.Fatalf("ledger invariant broken: %+v", s)
	}
}

// TestSplitFaultMatrix loses one message per case — request or response,
// against source or target, at every phase of a split — then resumes
// and audits: no acknowledged record may be lost or duplicated, reads
// are served while the migration is in flight, and the ledger balances.
func TestSplitFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		node transport.NodeID
		op   uint8
		when string // "request": never delivered; "response": applied, ack lost
	}{
		{"prepare-request-lost", 0, opMigratePrepare, "request"},
		{"prepare-response-lost", 0, opMigratePrepare, "response"},
		{"absorb-request-lost", 1, opMigrateAbsorb, "request"},
		{"absorb-response-lost", 1, opMigrateAbsorb, "response"},
		{"source-commit-response-lost", 0, opMigrateCommit, "response"},
		{"target-commit-response-lost", 1, opMigrateCommit, "response"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			h := newMigHarness(t, 2)
			keys := h.load(FileRecords, 48)
			h.c.SetMaxLoad(FileRecords, 8)
			drop := dropOnce(tc.node, tc.op)
			if tc.when == "request" {
				h.hook.setBefore(drop)
			} else {
				h.hook.setAfter(drop)
			}
			if err := h.c.coord.split(ctx, FileRecords); err == nil {
				t.Fatal("interrupted split reported success")
			}
			h.wantStats(1, 0, 0, 1)

			// Every acknowledged record stays readable mid-migration.
			for k, want := range keys {
				v, ok, err := h.c.Get(ctx, FileRecords, k)
				if err != nil || !ok || !bytes.Equal(v, want) {
					t.Fatalf("get %d during in-flight migration = %q, %v, %v", k, v, ok, err)
				}
			}

			resumed, err := h.c.coord.ResumeMigrations(ctx)
			if err != nil || resumed != 1 {
				t.Fatalf("ResumeMigrations = %d, %v", resumed, err)
			}
			h.wantStats(1, 1, 0, 0)
			if s := h.c.coord.MigrationStats(); s.Resumed == 0 {
				t.Fatal("resume not counted")
			}
			if got := h.c.coord.File(FileRecords).State.Buckets(); got != 2 {
				t.Fatalf("buckets after resumed split = %d, want 2", got)
			}
			h.checkAll(FileRecords, keys)
		})
	}
}

// TestMergeFaultMatrix is the shrink-side mirror: the closing bucket's
// records must survive every lost message of the merge handoff.
func TestMergeFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		node transport.NodeID
		op   uint8
		when string
		// midReads: whether moved records stay client-readable while the
		// migration hangs at this point. Once the source applies a merge
		// commit the closed bucket is gone, and a stale client image
		// cannot reach the moved records until the resumed commit
		// refreshes it — the LH* shrink window that makes coordinator-
		// assisted image refresh mandatory. The records themselves are
		// durable on the target throughout, as the post-resume audit
		// proves.
		midReads bool
	}{
		{"prepare-request-lost", 1, opMigratePrepare, "request", true},
		{"prepare-response-lost", 1, opMigratePrepare, "response", true},
		{"absorb-request-lost", 0, opMigrateAbsorb, "request", true},
		{"absorb-response-lost", 0, opMigrateAbsorb, "response", true},
		{"source-commit-response-lost", 1, opMigrateCommit, "response", false},
		{"target-commit-response-lost", 0, opMigrateCommit, "response", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			h := newMigHarness(t, 2)
			keys := h.load(FileRecords, 48)
			h.c.SetMaxLoad(FileRecords, 8)
			if err := h.c.coord.split(ctx, FileRecords); err != nil {
				t.Fatalf("setup split: %v", err)
			}
			// Shed records without crossing the (still tiny) merge
			// threshold, then raise minLoad so the merge is wanted.
			for k := uint64(24); k < 48; k++ {
				if found, err := h.c.Delete(ctx, FileRecords, k); err != nil || !found {
					t.Fatalf("delete %d = %v, %v", k, found, err)
				}
				delete(keys, k)
			}
			h.c.SetMaxLoad(FileRecords, 400)

			drop := dropOnce(tc.node, tc.op)
			if tc.when == "request" {
				h.hook.setBefore(drop)
			} else {
				h.hook.setAfter(drop)
			}
			if _, err := h.c.coord.migrate(ctx, FileRecords, mergePlan); err == nil {
				t.Fatal("interrupted merge reported success")
			}
			h.wantStats(2, 1, 0, 1)

			if tc.midReads {
				for k, want := range keys {
					v, ok, err := h.c.Get(ctx, FileRecords, k)
					if err != nil || !ok || !bytes.Equal(v, want) {
						t.Fatalf("get %d during in-flight merge = %q, %v, %v", k, v, ok, err)
					}
				}
			}

			resumed, err := h.c.coord.ResumeMigrations(ctx)
			if err != nil || resumed != 1 {
				t.Fatalf("ResumeMigrations = %d, %v", resumed, err)
			}
			h.wantStats(2, 2, 0, 0)
			if got := h.c.coord.File(FileRecords).State.Buckets(); got != 1 {
				t.Fatalf("buckets after resumed merge = %d, want 1", got)
			}
			h.checkAll(FileRecords, keys)
		})
	}
}

// TestFrozenBucketRejectsWrites pins the in-flight write freeze: while
// a migration is pending, writes to its buckets fail loudly (never
// silently vanish), reads keep working, and the freeze lifts at commit.
func TestFrozenBucketRejectsWrites(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	h.hook.setAfter(dropOnce(1, opMigrateAbsorb))
	if err := h.c.coord.split(ctx, FileRecords); err == nil {
		t.Fatal("interrupted split reported success")
	}
	err := h.c.Put(ctx, FileRecords, 1000, []byte("rejected"))
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("write to frozen bucket = %v, want loud freeze rejection", err)
	}
	if v, ok, err := h.c.Get(ctx, FileRecords, 0); err != nil || !ok || !bytes.Equal(v, keys[0]) {
		t.Fatalf("read during freeze = %q, %v, %v", v, ok, err)
	}
	if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := h.c.Put(ctx, FileRecords, 1000, []byte("accepted")); err != nil {
		t.Fatalf("write after freeze lifted: %v", err)
	}
}

// TestSplitCrashSweep cuts power to the source or target node at every
// durable-write crash point of one cross-node split and restarts it,
// once replaying the journal and once restoring every step from a
// checkpoint. Whatever the outcome the resume settles on — roll forward
// or abort — no acknowledged record may be lost or duplicated.
func TestSplitCrashSweep(t *testing.T) {
	victims := []struct {
		name string
		node transport.NodeID
		opts wal.Options
	}{
		{"source", 0, wal.Options{}},
		{"target", 1, wal.Options{}},
		{"source-checkpoint", 0, wal.Options{CheckpointBytes: 1}},
		{"target-checkpoint", 1, wal.Options{CheckpointBytes: 1}},
	}
	for _, victim := range victims {
		t.Run(victim.name, func(t *testing.T) {
			ctx := context.Background()
			for point := 1; ; point++ {
				h := newMigHarnessOpts(t, 2, victim.opts)
				keys := h.load(FileRecords, 24)
				h.c.SetMaxLoad(FileRecords, 4)
				h.fss[victim.node].SetCrash(point, wal.CrashDrop)
				err := h.c.coord.split(ctx, FileRecords)
				crashed := h.fss[victim.node].Crashed()
				if !crashed {
					// The sweep walked past the protocol's last durable
					// write on this node; the matrix is exhausted.
					if err != nil {
						t.Fatalf("point %d: split failed without a crash: %v", point, err)
					}
					h.checkAll(FileRecords, keys)
					return
				}
				h.startNode(victim.node)
				if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
					t.Fatalf("point %d: resuming after %s crash: %v", point, victim.name, err)
				}
				h.wantInvariant()
				if s := h.c.coord.MigrationStats(); s.InFlight != 0 {
					t.Fatalf("point %d: migration still in flight after resume: %+v", point, s)
				}
				// An aborted migration leaves the file ungrown; re-drive
				// the split before auditing so every sweep point ends at
				// the same shape.
				for h.c.coord.File(FileRecords).State.Buckets() < 2 {
					if err := h.c.coord.split(ctx, FileRecords); err != nil {
						t.Fatalf("point %d: re-splitting after abort: %v", point, err)
					}
				}
				h.checkAll(FileRecords, keys)
			}
		})
	}
}

// TestLocalSplitCrashSweep cuts power to the node holding both buckets
// of a node-local move of the posting-indexed file — on two nodes, the
// split of bucket 0 into bucket 2, and the merge closing bucket 2 into
// bucket 0 again, all on node 0 — at every durable-write crash point,
// once replaying the journal and once restoring every step from a
// checkpoint, then restarts it and resumes. Whatever the resume settles
// on, every indexed record is stored once, its postings are exactly a
// rebuild's, and search agrees with a linear-scan cluster, finding each
// record once. A move that ran without a crash wrote no posting, and its
// crash points are one journal record's.
func TestLocalSplitCrashSweep(t *testing.T) {
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	rng := rand.New(rand.NewSource(54))
	records := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 12; rid++ {
		records[rid] = randomRecord(rng)
	}
	insert := func(t *testing.T, c *Cluster) map[uint64][]byte {
		t.Helper()
		keys := make(map[uint64][]byte)
		for rid, rc := range records {
			recs, err := pl.BuildIndex(rid, rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.InsertIndexed(context.Background(), FileIndex, recs, pl.K(), slotBits); err != nil {
				t.Fatalf("insert %d: %v", rid, err)
			}
			for _, rec := range recs {
				for k, stream := range rec.Streams {
					keys[ComposeIndexKey(rid, rec.J, k, pl.K(), slotBits)] =
						encode(indexValue{firstIndex: uint32(rec.FirstIndex), pieces: stream})
				}
			}
		}
		return keys
	}
	lin, _ := memClusterNodes(t, 2, true)
	lin.SetMaxLoad(FileIndex, 16)
	insert(t, lin)

	split := func(ctx context.Context, h *migHarness) error { return h.c.coord.split(ctx, FileIndex) }
	merge := func(ctx context.Context, h *migHarness) error {
		_, err := h.c.coord.migrate(ctx, FileIndex, mergePlan)
		return err
	}
	for _, move := range []struct {
		name    string
		plan    func(*FileState) (MigrationIntent, bool)
		run     func(context.Context, *migHarness) error
		splits  int    // set-up splits: 0 → 1 across nodes, then 0 → 2
		maxLoad int    // set before the move, so the plan wants it
		buckets uint64 // the file's buckets once it committed
	}{
		{"", splitPlan, split, 1, 16, 3},
		{"merge-", mergePlan, merge, 2, 1 << 20, 2},
	} {
		for _, mode := range []struct {
			name   string
			opts   wal.Options
			points int // the move's crash points: its one journal record's, and the checkpoint it brings due
		}{
			{"replay", wal.Options{}, 2},
			{"checkpoint", wal.Options{CheckpointBytes: 1}, 8},
		} {
			t.Run(move.name+mode.name, func(t *testing.T) {
				ctx := context.Background()
				for point := 1; ; point++ {
					h := newMigHarnessOpts(t, 2, mode.opts)
					h.c.SetMaxLoad(FileIndex, 1<<20)
					keys := insert(t, h.c)
					h.c.SetMaxLoad(FileIndex, 16)
					for i := 0; i < move.splits; i++ {
						if err := split(ctx, h); err != nil {
							t.Fatalf("set-up split: %v", err)
						}
					}
					h.c.SetMaxLoad(FileIndex, move.maxLoad)
					f := h.c.coord.File(FileIndex)
					if f.State.Buckets() != uint64(move.splits)+1 {
						t.Fatalf("set-up grew the file to %d buckets", f.State.Buckets())
					}
					if in, ok := move.plan(&f); !ok || h.place.NodeOf(in.From) != 0 || h.place.NodeOf(in.To) != 0 {
						t.Fatalf("planned move %+v (wanted %v) is not local to node 0", in, ok)
					}
					before := indexStatsOf(h.nodes[0])
					h.fss[0].SetCrash(point, wal.CrashDrop)
					err := move.run(ctx, h)
					crashed := h.fss[0].Crashed()
					if !crashed {
						// Past the protocol's last durable write on node 0.
						if err != nil {
							t.Fatalf("point %d: move failed without a crash: %v", point, err)
						}
						if after := indexStatsOf(h.nodes[0]); after.tombstones != before.tombstones || after.entries != before.entries {
							t.Fatalf("node-local move rewrote postings: index %+v before, %+v after", before, after)
						}
					} else {
						h.startNode(0)
						if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
							t.Fatalf("point %d: resuming after the crash: %v", point, err)
						}
						h.wantInvariant()
						if s := h.c.coord.MigrationStats(); s.InFlight != 0 {
							t.Fatalf("point %d: migration still in flight after resume: %+v", point, s)
						}
						if h.c.coord.File(FileIndex).State.Buckets() != move.buckets {
							if err := move.run(ctx, h); err != nil {
								t.Fatalf("point %d: re-running the move after abort: %v", point, err)
							}
						}
						if b := h.c.coord.File(FileIndex).State.Buckets(); b != move.buckets {
							t.Fatalf("point %d: the file has %d buckets after the move, want %d", point, b, move.buckets)
						}
					}
					h.checkAll(FileIndex, keys)
					checkPostingInvariants(t, []*Node{h.nodes[0], h.nodes[1]})
					for rid, rc := range records {
						query, err := pl.BuildQuery(rc[:9], false)
						if err != nil {
							t.Fatal(err)
						}
						got, err := h.c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
						if err != nil {
							t.Fatalf("point %d: search: %v", point, err)
						}
						want, err := lin.Search(ctx, FileIndex, pl, query, core.VerifyAny)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("point %d: search for record %d: posting %v, linear %v", point, rid, got, want)
						}
						if n := countOf(got, rid); n != 1 {
							t.Fatalf("point %d: search for record %d found it %d times: %v", point, rid, n, got)
						}
					}
					if !crashed {
						// The prepare is the move's only durable write.
						if point-1 != mode.points {
							t.Fatalf("the sweep found %d crash points, want %d", point-1, mode.points)
						}
						return
					}
				}
			})
		}
	}
}

// indexStatsOf reads a node's posting-index summary of the index file.
func indexStatsOf(n *Node) indexStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.files[FileIndex]; ok && f.idx != nil {
		return f.idx.stats()
	}
	return indexStats{}
}

func countOf(xs []uint64, x uint64) int {
	n := 0
	for _, v := range xs {
		if v == x {
			n++
		}
	}
	return n
}

// TestCoordinatorCrashResumesFromJournal kills the coordinator with a
// migration in flight (target absorbed, ack lost). The restarted
// coordinator must find the intent in its journal, roll the handoff
// forward, and lose nothing.
func TestCoordinatorCrashResumesFromJournal(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	h.hook.setAfter(dropOnce(1, opMigrateAbsorb))
	if err := h.c.coord.split(ctx, FileRecords); err == nil {
		t.Fatal("interrupted split reported success")
	}

	// Coordinator dies; a fresh one reopens the durable journal.
	if inFlight := h.newCoordinator(); inFlight != 1 {
		t.Fatalf("restarted coordinator found %d in-flight migrations, want 1", inFlight)
	}
	if got := h.c.coord.File(FileRecords).Size; got != 0 {
		t.Fatalf("record count %d before the resume settled the migration; the census must wait", got)
	}
	resumed, err := h.c.coord.ResumeMigrations(ctx)
	if err != nil || resumed != 1 {
		t.Fatalf("ResumeMigrations = %d, %v", resumed, err)
	}
	h.wantStats(1, 1, 0, 0)
	if got := h.c.coord.File(FileRecords).Size; got != len(keys) {
		t.Fatalf("record count after the resume = %d, want %d", got, len(keys))
	}
	h.checkAll(FileRecords, keys)
}

// TestCoordinatorRestartFoldsCommittedMigrations: a restarted
// coordinator reconstructs the file state (I, N) by folding the
// journal's committed migrations, and the record count from one census
// of the nodes.
func TestCoordinatorRestartFoldsCommittedMigrations(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	if err := h.c.coord.split(ctx, FileRecords); err != nil {
		t.Fatalf("split: %v", err)
	}
	if inFlight := h.newCoordinator(); inFlight != 0 {
		t.Fatalf("clean journal reported %d in-flight migrations", inFlight)
	}
	if got := h.c.coord.File(FileRecords).State.Buckets(); got != 2 {
		t.Fatalf("restarted coordinator folded state to %d buckets, want 2", got)
	}
	if got := h.c.coord.File(FileRecords).Size; got != len(keys) {
		t.Fatalf("restarted coordinator counts %d records, want %d", got, len(keys))
	}
	h.wantStats(1, 1, 0, 0)
	h.checkAll(FileRecords, keys)
}

// TestCensusLostAtRestartRunsBeforeMerge: when the restarted
// coordinator's census is lost, the count stays pending, and the first
// merge plan takes the census before deciding, so a delete does not
// collapse the file.
func TestCensusLostAtRestartRunsBeforeMerge(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	if err := h.c.coord.split(ctx, FileRecords); err != nil {
		t.Fatalf("split: %v", err)
	}
	h.hook.setBefore(dropOnce(1, opStats))
	h.newCoordinator()
	h.c.SetMaxLoad(FileRecords, 8)
	if got := h.c.coord.File(FileRecords).Size; got != 0 {
		t.Fatalf("record count %d although the census was lost", got)
	}
	if _, err := h.c.Delete(ctx, FileRecords, 0); err != nil {
		t.Fatal(err)
	}
	delete(keys, 0)
	if got := h.c.coord.File(FileRecords).Size; got != len(keys) || h.c.coord.File(FileRecords).Merges != 0 {
		t.Fatalf("after one delete: count %d, %d merges; want %d, 0", got, h.c.coord.File(FileRecords).Merges, len(keys))
	}
	h.checkAll(FileRecords, keys)
}

// TestFailedWriteOwesACensus: a delete whose answer is lost leaves the
// record count unknown, so the write owes a census. While no census can
// be taken the file's split plan waits, even though the stale count says
// the file overflows, and the next resume drive that reaches every node
// makes the count exact.
func TestFailedWriteOwesACensus(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	if err := h.c.coord.split(ctx, FileRecords); err != nil {
		t.Fatalf("split: %v", err)
	}
	h.c.SetMaxLoad(FileRecords, 24) // two buckets hold 48 without splitting

	// The delete's one-entry put_batch applies on the node (its stale
	// image sends it to node 0), and its answer is lost.
	h.hook.setAfter(dropOnce(0, opPutBatch))
	if _, err := h.c.Delete(ctx, FileRecords, 0); err == nil {
		t.Fatal("delete with a lost answer reported success")
	}
	delete(keys, 0)
	h.hook.setBefore(func(_ transport.NodeID, op uint8) error {
		if op == opStats {
			return fmt.Errorf("injected: census answer lost")
		}
		return nil
	})
	if err := h.c.Put(ctx, FileRecords, 100, []byte("migval-100")); err != nil {
		t.Fatalf("put while the census is owed: %v", err)
	}
	keys[100] = []byte("migval-100")
	if f := h.c.coord.File(FileRecords); f.Size != 49 || f.Splits != 1 {
		t.Fatalf("census owed: count %d, %d splits; want the stale 49 and no new split", f.Size, f.Splits)
	}

	h.hook.setBefore(nil)
	if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
		t.Fatal(err)
	}
	if f := h.c.coord.File(FileRecords); f.Size != len(keys) || f.Splits != 1 {
		t.Fatalf("after the census: count %d, %d splits; want %d, 1", f.Size, f.Splits, len(keys))
	}
	h.checkAll(FileRecords, keys)
}

// TestMergeAbsorbRejectionAborts pins the abort path: when the merge
// target definitively rejects the absorb, the coordinator aborts both
// sides and the closing bucket — which never lost a record — resumes
// serving unchanged.
func TestMergeAbsorbRejectionAborts(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 48)
	h.c.SetMaxLoad(FileRecords, 8)
	if err := h.c.coord.split(ctx, FileRecords); err != nil {
		t.Fatalf("setup split: %v", err)
	}
	for k := uint64(24); k < 48; k++ {
		if _, err := h.c.Delete(ctx, FileRecords, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		delete(keys, k)
	}
	h.c.SetMaxLoad(FileRecords, 400)

	h.hook.setBefore(rejectOnce(0, opMigrateAbsorb))
	if _, err := h.c.coord.migrate(ctx, FileRecords, mergePlan); err == nil {
		t.Fatal("rejected merge reported success")
	}
	h.wantStats(2, 1, 1, 0)
	if got := h.c.coord.File(FileRecords).State.Buckets(); got != 2 {
		t.Fatalf("aborted merge changed the file to %d buckets", got)
	}
	if got := h.c.coord.File(FileRecords).Merges; got != 0 {
		t.Fatalf("aborted merge counted as %d merges", got)
	}
	h.checkAll(FileRecords, keys)

	// With the fault gone the merge goes through cleanly.
	h.hook.setBefore(nil)
	if err := h.c.coord.settle(ctx, FileRecords, true); err != nil {
		t.Fatalf("merge after abort: %v", err)
	}
	h.wantStats(3, 2, 1, 0)
	if got := h.c.coord.File(FileRecords).State.Buckets(); got != 1 {
		t.Fatalf("buckets after merge = %d, want 1", got)
	}
	h.checkAll(FileRecords, keys)
}

// TestWordSearchDuringInterruptedSplit: while a split is in flight both
// source and target legitimately hold the moved records; searches must
// stay complete and must not double-report them — during the freeze and
// after the resume.
func TestWordSearchDuringInterruptedSplit(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	h.c.SetMaxLoad(FileWords, 1<<20)

	ix := wordindex.New(cipherx.KeyFromPassphrase("migration-test"), nil)
	needle := ix.TokenOf([]byte("NEEDLE")) // LetterTokenizer upper-cases words
	var want []uint64
	for rid := uint64(0); rid < 48; rid++ {
		content := []byte("plain hay content")
		if rid%3 == 0 {
			content = []byte("hay with needle inside")
			want = append(want, rid)
		}
		blob := wordindex.Blob(ix.Tokens(content))
		if err := h.c.Put(ctx, FileWords, rid, blob); err != nil {
			t.Fatalf("put word blob %d: %v", rid, err)
		}
	}
	h.c.SetMaxLoad(FileWords, 8)
	h.hook.setAfter(dropOnce(1, opMigrateAbsorb))
	if err := h.c.coord.split(ctx, FileWords); err == nil {
		t.Fatal("interrupted split reported success")
	}

	check := func(phase string) {
		t.Helper()
		got, err := h.c.WordSearch(ctx, FileWords, needle[:])
		if err != nil {
			t.Fatalf("%s: word search: %v", phase, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: word search = %v, want %v", phase, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: word search = %v, want %v", phase, got, want)
			}
		}
	}
	check("during in-flight migration")
	if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	check("after resumed migration")
}

// TestMigrateHeaderMismatchRejected: nodes validate the coordinator's
// (from, to, level) expectation against local reality and refuse loudly
// on mismatch instead of splitting the wrong bucket.
func TestMigrateHeaderMismatchRejected(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	h.load(FileRecords, 8)
	bad := []migrateHeader{
		{mid: 99, kind: migrateSplit, file: FileRecords, from: 0, to: 3, level: 0},   // wrong target
		{mid: 99, kind: migrateSplit, file: FileRecords, from: 0, to: 1, level: 4},   // wrong level
		{mid: 99, kind: migrateSplit, file: FileRecords, from: 7, to: 135, level: 7}, // no such bucket
		{mid: 99, kind: migrateMerge, file: FileRecords, from: 0, to: 1, level: 0},   // level-0 merge
	}
	for i, hdr := range bad {
		if _, err := h.hook.Send(ctx, 0, opMigratePrepare, encode(hdr)); err == nil {
			t.Fatalf("case %d: node accepted mismatched header %+v", i, hdr)
		}
	}
	if s := h.c.coord.MigrationStats(); s.Started != 0 {
		t.Fatalf("rejected prepares leaked into the ledger: %+v", s)
	}
}
