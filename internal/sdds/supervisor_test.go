package sdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cipherx"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wordindex"
)

// supervisedCluster wires the full availability loop over a memory
// cluster of durable nodes, each journaling into its own directory of
// one MemFS: a detector, and a supervisor whose reviver reopens a
// node's store and replays it. Its loop is not started: tests step it
// one pass at a time.
type supervisedCluster struct {
	cluster *Cluster
	mem     *transport.Memory
	place   *Placement
	fs      *wal.MemFS
	det     *transport.Detector
	sup     *Supervisor
	clk     *clock.FakeClock // drives the supervisor's debounce/backoff timing

	mu     sync.Mutex
	nodes  map[transport.NodeID]*Node
	stores map[transport.NodeID]*wal.Store
}

func newSupervisedCluster(t *testing.T, n int) *supervisedCluster {
	t.Helper()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	sc := &supervisedCluster{
		mem:    transport.NewMemory(),
		place:  place,
		fs:     wal.NewMemFS(),
		nodes:  make(map[transport.NodeID]*Node),
		stores: make(map[transport.NodeID]*wal.Store),
		clk:    clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
	}
	for _, id := range ids {
		if err := sc.start(id); err != nil {
			t.Fatal(err)
		}
	}
	sc.cluster = NewCluster(sc.mem, place)
	sc.det = transport.NewDetector(sc.mem, place.Nodes(), transport.DetectorPolicy{
		ProbeOp:      PingOp,
		ProbeTimeout: 200 * time.Millisecond,
		DownAfter:    1,
	})
	revive := func(_ context.Context, id transport.NodeID) error { return sc.start(id) }
	sc.sup = NewSupervisor(sc.det, revive, nil, sc.clk)
	return sc
}

// journalPath is node id's journal file on the cluster's MemFS.
func journalPath(id transport.NodeID) string { return fmt.Sprintf("node-%d/wal.log", id) }

// start opens node id's store, replays it into a new node and registers
// the node: the initial start, the reviver, and an operator's restart.
// A store that fails verification is the error (wrapping wal.ErrCorrupt)
// and the node stays unregistered. A store that comes back fresh is
// registered anyway, so the supervisor's recovery check is what sees it.
func (sc *supervisedCluster) start(id transport.NodeID) error {
	st, err := wal.Open(sc.fs, fmt.Sprintf("node-%d", id), wal.Options{})
	if err != nil {
		return err
	}
	node := NewNode(id, sc.mem, sc.place)
	if _, err := node.AttachStore(st); err != nil {
		st.Close() //nolint:errcheck // nothing was appended
		return err
	}
	sc.mu.Lock()
	sc.nodes[id], sc.stores[id] = node, st
	sc.mu.Unlock()
	sc.mem.Register(id, node.Handler())
	return nil
}

// kill crashes nodes: unregistered, stores torn down without a flush.
func (sc *supervisedCluster) kill(ids ...transport.NodeID) {
	for _, id := range ids {
		sc.mem.Unregister(id)
		sc.mu.Lock()
		st := sc.stores[id]
		sc.mu.Unlock()
		st.Abort()
	}
}

// repairPass steps past the debounce (and any backoff) so every tracked
// node gets one repair attempt.
func (sc *supervisedCluster) repairPass(ctx context.Context) {
	sc.sup.Reconcile(ctx)
	sc.clk.Advance(max(debounce, repairBackoff))
	sc.sup.Reconcile(ctx)
}

func phases(j []RepairRecord, node transport.NodeID) []RepairPhase {
	var out []RepairPhase
	for _, r := range j {
		if r.Node == node {
			out = append(out, r.Phase)
		}
	}
	return out
}

// loadRecords inserts count records and returns the values by key.
func loadRecords(t *testing.T, c *Cluster, count int) map[uint64][]byte {
	t.Helper()
	ctx := context.Background()
	c.SetMaxLoad(FileRecords, 8)
	want := make(map[uint64][]byte, count)
	for k := uint64(0); k < uint64(count); k++ {
		v := []byte(fmt.Sprintf("value-%06d-%s", k, strings.Repeat("x", int(k%13))))
		if err := c.Put(ctx, FileRecords, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	return want
}

func verifyRecords(t *testing.T, c *Cluster, want map[uint64][]byte) {
	t.Helper()
	ctx := context.Background()
	for k, v := range want {
		got, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !ok || string(got) != string(v) {
			t.Fatalf("Get(%d) = %q %v, want %q — record lost in recovery", k, got, ok, v)
		}
	}
}

func TestSupervisorAutoRepairsKilledNodes(t *testing.T) {
	sc := newSupervisedCluster(t, 4)
	ctx := context.Background()
	want := loadRecords(t, sc.cluster, 60)

	sc.kill(1, 3)
	sc.sup.Reconcile(ctx) // detect both down
	if got := sc.sup.Health().Down; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Down = %v, want [1 3]", got)
	}
	sc.clk.Advance(debounce) // let the debounce elapse
	sc.sup.Reconcile(ctx)    // revive: each node replays its own journal

	if got := sc.sup.Health().Down; len(got) != 0 {
		t.Fatalf("Down after repair = %v", got)
	}
	if n := sc.sup.Health().Repairs; n != 2 {
		t.Fatalf("Repairs = %d, want 2", n)
	}
	verifyRecords(t, sc.cluster, want) // zero record loss
	for _, node := range []transport.NodeID{1, 3} {
		got := phases(sc.sup.Journal(), node)
		if len(got) < 2 || got[0] != RepairDetected || got[len(got)-1] != RepairLocalRecovery {
			t.Fatalf("node %d journal phases = %v", node, got)
		}
		if st := sc.det.Snapshot()[node].State; st != transport.NodeUp {
			t.Fatalf("node %d post-repair state = %v", node, st)
		}
	}
	if err := sc.sup.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy after repair: %v", err)
	}
}

// TestSupervisorRecoversMajorityKill: with every node durable there is
// no failure budget — two of three nodes dying at once is two local
// replays, not an alarm.
func TestSupervisorRecoversMajorityKill(t *testing.T) {
	sc := newSupervisedCluster(t, 3)
	ctx := context.Background()
	want := loadRecords(t, sc.cluster, 40)

	sc.kill(0, 2)
	sc.repairPass(ctx)

	if a := sc.sup.Health().Alarm; a != "" {
		t.Fatalf("alarm after killing 2 of 3 durable nodes: %q", a)
	}
	if n := sc.sup.Health().Repairs; n != 2 {
		t.Fatalf("Repairs = %d, want 2; journal %+v", n, sc.sup.Journal())
	}
	for _, node := range []transport.NodeID{0, 2} {
		if got := phases(sc.sup.Journal(), node); got[len(got)-1] != RepairLocalRecovery {
			t.Fatalf("node %d journal phases = %v, want ... local-recovery", node, got)
		}
	}
	if err := sc.sup.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy: %v", err)
	}
	verifyRecords(t, sc.cluster, want)
}

// TestSupervisorAlarmsOnCorruptJournal: a node whose journal fails
// verification is not revived empty. The revive fails, the alarm names
// the node, searches report it missing, and its journal is left
// byte-for-byte as it was for salvage.
func TestSupervisorAlarmsOnCorruptJournal(t *testing.T) {
	sc, pl, query, victim := newMarkerCluster(t)
	ctx := context.Background()
	loadRecords(t, sc.cluster, 20)

	// Bit 5 of byte 13 sits in the first frame's checksum: a complete
	// frame that no longer verifies — corruption, not a torn tail.
	if err := sc.fs.FlipBit(journalPath(victim), 13, 5); err != nil {
		t.Fatal(err)
	}
	before, err := sc.fs.ReadFile(journalPath(victim))
	if err != nil {
		t.Fatal(err)
	}
	sc.kill(victim)
	sc.repairPass(ctx)
	sc.repairPass(ctx) // a later pass must not try again

	got := phases(sc.sup.Journal(), victim)
	if want := []RepairPhase{RepairDetected, RepairStarted, RepairAlarm}; !slices.Equal(got, want) {
		t.Fatalf("journal phases = %v, want %v", got, want)
	}
	if a := sc.sup.Health().Alarm; !strings.Contains(a, fmt.Sprintf("node %d", victim)) {
		t.Fatalf("Alarm = %q, want it to name node %d", a, victim)
	}
	if n := sc.sup.Health().Repairs; n != 0 {
		t.Fatalf("Repairs = %d for a corrupt journal", n)
	}
	if err := sc.sup.AwaitHealthy(ctx); !errors.Is(err, ErrNodeStateLost) {
		t.Fatalf("AwaitHealthy = %v, want ErrNodeStateLost", err)
	}
	_, err = sc.cluster.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	wantIncomplete(t, err, victim)
	after, err := sc.fs.ReadFile(journalPath(victim))
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("corrupt journal changed by the revive attempts (err %v)", err)
	}
}

// TestSupervisorAlarmsOnLostDataDir: a node whose data dir was wiped
// comes back fresh. That is an alarm, not a repair; the alarm stays
// through later passes, AwaitHealthy fails fast, and only the node
// reporting a replay of its own journal again clears it.
func TestSupervisorAlarmsOnLostDataDir(t *testing.T) {
	sc := newSupervisedCluster(t, 3)
	ctx := context.Background()
	want := loadRecords(t, sc.cluster, 30)
	const victim = transport.NodeID(1)

	saved, err := sc.fs.ReadFile(journalPath(victim))
	if err != nil {
		t.Fatal(err)
	}
	sc.kill(victim)
	if err := sc.fs.Remove(journalPath(victim)); err != nil {
		t.Fatal(err)
	}
	sc.repairPass(ctx)
	for i := 0; i < 3; i++ {
		sc.repairPass(ctx)
		if a := sc.sup.Health().Alarm; !strings.Contains(a, "node 1") {
			t.Fatalf("pass %d: Alarm = %q, want it to name node 1", i, a)
		}
	}
	if got := phases(sc.sup.Journal(), victim); got[len(got)-1] != RepairAlarm {
		t.Fatalf("journal phases = %v, want ... alarm", got)
	}
	if lost := sc.sup.Health().Lost; len(lost) != 1 || lost[0] != victim {
		t.Fatalf("Lost = %v, want [1]", lost)
	}
	actx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	start := time.Now()
	if err := sc.sup.AwaitHealthy(actx); !errors.Is(err, ErrNodeStateLost) {
		t.Fatalf("AwaitHealthy = %v, want ErrNodeStateLost", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("AwaitHealthy waited instead of failing fast")
	}

	// The operator puts the journal back and restarts the node: its own
	// replay clears the alarm and completes the repair.
	sc.kill(victim)
	sc.fs.Remove(journalPath(victim)) //nolint:errcheck // the fresh store's stamp
	f, err := sc.fs.OpenTrunc(journalPath(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(saved); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sc.start(victim); err != nil {
		t.Fatal(err)
	}
	sc.repairPass(ctx)
	if a := sc.sup.Health().Alarm; a != "" {
		t.Fatalf("alarm after the node replayed its journal: %q", a)
	}
	if err := sc.sup.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy after the restore: %v", err)
	}
	verifyRecords(t, sc.cluster, want)
}

func TestSupervisorAbsorbsFlaps(t *testing.T) {
	sc := newSupervisedCluster(t, 3) // the clock never moves: nothing becomes ripe
	ctx := context.Background()
	loadRecords(t, sc.cluster, 20)

	sc.kill(1)
	sc.sup.Reconcile(ctx)
	if got := sc.sup.Health().Down; len(got) != 1 || got[0] != 1 {
		t.Fatalf("Down = %v", got)
	}
	// The process restarts before the debounce elapses: the supervisor
	// must drop it without a repair.
	if err := sc.start(1); err != nil {
		t.Fatal(err)
	}
	sc.sup.Reconcile(ctx)
	if got := sc.sup.Health().Down; len(got) != 0 {
		t.Fatalf("Down after flap = %v", got)
	}
	got := phases(sc.sup.Journal(), 1)
	if len(got) != 2 || got[0] != RepairDetected || got[1] != RepairFlap {
		t.Fatalf("journal phases = %v, want [detected flap]", got)
	}
	if n := sc.sup.Health().Repairs; n != 0 {
		t.Fatalf("Repairs = %d for a flap", n)
	}
}

// countingClock counts the wake-ups armed on a fake clock. With Step
// the only way time moves, armed minus steps taken is the number of
// wake-ups pending.
type countingClock struct {
	*clock.FakeClock
	armed atomic.Int64
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.armed.Add(1)
	return c.FakeClock.After(d)
}

// TestSupervisorLoopIsTheOneTimer: self-healing runs on one timer. The
// supervisor's started loop keeps exactly one wake-up pending, also
// while AwaitHealthy waits on an unhealthy cluster; each wake-up moves
// the clock by exactly ProbeInterval and runs one probe round and then
// one reconciliation, so a killed node is journaled detected on wake-up
// DownAfter, the one whose probe confirms it down; and AwaitHealthy
// returns at the end of the pass that sees the cluster whole again.
func TestSupervisorLoopIsTheOneTimer(t *testing.T) {
	const (
		downAfter = 3
		interval  = time.Second
	)
	sc := newSupervisedCluster(t, 3)
	clk := &countingClock{FakeClock: sc.clk}
	det := transport.NewDetector(sc.mem, sc.place.Nodes(), transport.DetectorPolicy{
		ProbeOp:       PingOp,
		ProbeInterval: interval,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     downAfter,
	})
	sup := NewSupervisor(det, nil, nil, clk)
	sup.Start()
	defer sup.Stop()

	start := clk.Now()
	var wakes int64
	onePending := func() {
		t.Helper()
		if pending := clk.armed.Load() - wakes; pending != 1 {
			t.Fatalf("after wake-up %d: %d wake-ups pending, want 1", wakes, pending)
		}
	}
	wake := func() {
		t.Helper()
		onePending()
		clk.Step()
		wakes++
		clk.BlockUntil(1) // the pass has ended and the next wake-up is armed
		onePending()
		if got, want := clk.Now(), start.Add(time.Duration(wakes)*interval); !got.Equal(want) {
			t.Fatalf("wake-up %d at %v, want %v: one wake-up per ProbeInterval", wakes, got, want)
		}
		for _, nh := range det.Snapshot() {
			if nh.ActiveProbes != uint64(wakes) {
				t.Fatalf("wake-up %d: node %d took %d probes, want one round per wake-up", wakes, nh.Node, nh.ActiveProbes)
			}
		}
	}
	wake()

	sc.kill(1)
	wake() // the first failed probe: suspect, so the cluster is unhealthy
	healthy := make(chan error, 1)
	go func() { healthy <- sup.AwaitHealthy(context.Background()) }()
	for w := 2; w <= downAfter; w++ {
		if got := phases(sup.Journal(), 1); len(got) != 0 {
			t.Fatalf("failed probe %d of %d: journal %v, want nothing yet", w-1, downAfter, got)
		}
		wake()
	}
	j := sup.Journal()
	if len(j) != 1 || j[0].Node != 1 || j[0].Phase != RepairDetected || !j[0].At.Equal(clk.Now()) {
		t.Fatalf("journal after %d failed probes = %+v, want node 1 detected at %v", downAfter, j, clk.Now())
	}
	select {
	case err := <-healthy:
		t.Fatalf("AwaitHealthy = %v with node 1 down", err)
	default:
	}

	// The node restarts out of band before the debounce: the next pass
	// probes it up, absorbs the flap, and wakes AwaitHealthy.
	if err := sc.start(1); err != nil {
		t.Fatal(err)
	}
	wake()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatalf("AwaitHealthy after the restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitHealthy did not return at the end of the pass that saw the cluster whole")
	}
	if got := phases(sup.Journal(), 1); !slices.Equal(got, []RepairPhase{RepairDetected, RepairFlap}) {
		t.Fatalf("journal phases = %v, want [detected flap]", got)
	}
}

// newMarkerCluster is a 3-node supervised cluster whose index file holds the chaos corpus' records
// 1..20 — GRIDLOCK in every fourth — in one bucket, so every index piece
// lives on bucket 0's node. It returns that node and the GRIDLOCK query.
func newMarkerCluster(t *testing.T) (*supervisedCluster, *core.Pipeline, *core.Query, transport.NodeID) {
	t.Helper()
	sc := newSupervisedCluster(t, 3)
	pl := testPipeline(t, 4, 2, 1)
	for rid := uint64(1); rid <= 20; rid++ {
		indexRecord(t, sc.cluster, pl, rid, newChaosCorpus().record(rid))
	}
	if b := sc.cluster.coord.File(FileIndex).State.Buckets(); b != 1 {
		t.Fatalf("index file has %d buckets, want 1", b)
	}
	query, err := pl.BuildQuery([]byte("GRIDLOCK"), false)
	if err != nil {
		t.Fatal(err)
	}
	return sc, pl, query, sc.place.NodeOf(0)
}

func indexRecord(t *testing.T, c *Cluster, pl *core.Pipeline, rid uint64, content []byte) {
	t.Helper()
	recs, err := pl.BuildIndex(rid, content)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertIndexed(context.Background(), FileIndex, recs, pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
		t.Fatal(err)
	}
}

// wantIncomplete asserts err is an *IncompleteError naming exactly node.
func wantIncomplete(t *testing.T, err error, node transport.NodeID) *IncompleteError {
	t.Helper()
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an *IncompleteError", err)
	}
	if len(ie.Failed) != 1 || ie.Failed[0].Node != node {
		t.Fatalf("Failed = %v, want exactly node %d", ie.Failed, node)
	}
	return ie
}

// TestSearchReportsDownNodeAfterLateInsert: a record inserted just
// before its index node dies must not silently drop out of the answer —
// the search fails with an IncompleteError naming the node.
func TestSearchReportsDownNodeAfterLateInsert(t *testing.T) {
	sc, pl, query, victim := newMarkerCluster(t)
	ctx := context.Background()
	indexRecord(t, sc.cluster, pl, 100, []byte("RECORD 0100 HAS GRIDLOCK INSIDE"))
	sc.kill(victim)
	sc.sup.Reconcile(ctx)
	if got := sc.sup.Health().Down; len(got) != 1 || got[0] != victim {
		t.Fatalf("Down = %v, want [%d]", got, victim)
	}
	rids, err := sc.cluster.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	wantIncomplete(t, err, victim)
	if rids != nil {
		t.Fatalf("incomplete search also returned RIDs %v", rids)
	}
}

// TestSearchReportsDownNodeAfterLateDelete: a record deleted just
// before its index node dies must not come back as a ghost.
func TestSearchReportsDownNodeAfterLateDelete(t *testing.T) {
	sc, pl, query, victim := newMarkerCluster(t)
	ctx := context.Background()
	if err := sc.cluster.DeleteIndexed(ctx, FileIndex, 4, pl.Chunkings(), pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
		t.Fatal(err)
	}
	sc.kill(victim)
	sc.sup.Reconcile(ctx)
	_, err := sc.cluster.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if ie := wantIncomplete(t, err, victim); slices.Contains(ie.RIDs, 4) {
		t.Fatalf("deleted record 4 came back: %v", ie.RIDs)
	}
}

// TestWordSearchReportsDeadNode: a word search that a node cannot answer
// fails with an IncompleteError naming it, carrying the other nodes'
// matches — a subset of the healthy answer.
func TestWordSearchReportsDeadNode(t *testing.T) {
	ctx := context.Background()
	c, mem := memClusterWithTransport(t, 3)
	c.SetMaxLoad(FileWords, 4) // spread the word file over every node
	ix := wordindex.New(cipherx.KeyFromPassphrase("word-test"), nil)
	for rid := uint64(0); rid < 48; rid++ {
		content := []byte("plain hay content")
		if rid%3 == 0 {
			content = []byte("hay with needle inside")
		}
		if err := c.Put(ctx, FileWords, rid, wordindex.Blob(ix.Tokens(content))); err != nil {
			t.Fatal(err)
		}
	}
	needle := ix.TokenOf([]byte("NEEDLE"))
	healthy, err := c.WordSearch(ctx, FileWords, needle[:])
	if err != nil || len(healthy) != 16 {
		t.Fatalf("healthy word search = %v, %v; want the 16 needle records", healthy, err)
	}

	mem.Unregister(1)
	rids, err := c.WordSearch(ctx, FileWords, needle[:])
	ie := wantIncomplete(t, err, 1)
	if rids != nil {
		t.Fatalf("incomplete word search also returned RIDs %v", rids)
	}
	if len(ie.RIDs) == 0 || len(ie.RIDs) >= len(healthy) {
		t.Fatalf("partial answer %v, want a proper subset of %v", ie.RIDs, healthy)
	}
	for _, r := range ie.RIDs {
		if !slices.Contains(healthy, r) {
			t.Fatalf("partial answer holds %d, not in the healthy answer %v", r, healthy)
		}
	}
}

// TestRepairJournalRingBound: the repair journal is a ring — it never
// grows past journalCap, sheds oldest-first, counts what it shed, and
// keeps sequence numbers monotonic so an auditor can see the gap.
func TestRepairJournalRingBound(t *testing.T) {
	const extra = 12
	sc := newSupervisedCluster(t, 3)
	for i := 0; i < journalCap+extra; i++ {
		sc.sup.journalOne(transport.NodeID(i%3), RepairDetected, "synthetic")
	}
	h := sc.sup.Health()
	if h.JournalLen != journalCap {
		t.Fatalf("journal length = %d, want bounded at %d", h.JournalLen, journalCap)
	}
	if h.JournalDropped != extra {
		t.Fatalf("dropped = %d, want %d", h.JournalDropped, extra)
	}
	j := sc.sup.Journal()
	if len(j) != journalCap {
		t.Fatalf("Journal() length = %d, want %d", len(j), journalCap)
	}
	for i, r := range j {
		if want := uint64(extra + 1 + i); r.Seq != want {
			t.Fatalf("journal[%d].Seq = %d, want %d (newest records must survive in order)", i, r.Seq, want)
		}
	}
}
