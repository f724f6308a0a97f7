package sdds

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wordindex"
)

// supervisedCluster wires the full availability loop over a guarded
// memory cluster: detector (manual probing for deterministic stepping),
// guardian, and supervisor with an in-memory reviver.
type supervisedCluster struct {
	*guardedCluster
	guard *Guardian
	det   *transport.Detector
	sup   *Supervisor
	clk   *metClock // drives the supervisor's debounce/backoff timing
}

func newSupervisedCluster(t *testing.T, n, k int, cfg SupervisorConfig) *supervisedCluster {
	t.Helper()
	gc := newGuardedCluster(t, n)
	guard, err := NewGuardian(gc.tr, gc.place, k)
	if err != nil {
		t.Fatal(err)
	}
	det := transport.NewDetector(gc.tr, gc.place.Nodes(), transport.DetectorPolicy{
		ProbeOp:      PingOp,
		ProbeTimeout: 200 * time.Millisecond,
		DownAfter:    1,
		UpAfter:      1,
	})
	revive := func(_ context.Context, node transport.NodeID) error {
		gc.reviveEmpty(node)
		return nil
	}
	sup := NewSupervisor(det, guard, nil, revive, cfg)
	clk := newMetClock()
	sup.now = clk.Now // deterministic debounce: tests advance, never sleep
	return &supervisedCluster{guardedCluster: gc, guard: guard, det: det, sup: sup, clk: clk}
}

// step runs one probe round plus one supervision pass.
func (sc *supervisedCluster) step(ctx context.Context) {
	sc.det.ProbeOnce(ctx)
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

func TestSupervisorAutoRepairsKilledNodes(t *testing.T) {
	sc := newSupervisedCluster(t, 4, 2, SupervisorConfig{
		Debounce:      time.Millisecond,
		RepairBackoff: time.Millisecond,
	})
	ctx := context.Background()
	want := loadRecords(t, sc.cluster, 60)
	if err := sc.guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	sc.kill(1, 3)
	sc.step(ctx) // detect both down
	if got := sc.sup.Down(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Down = %v, want [1 3]", got)
	}
	sc.clk.Advance(5 * time.Millisecond) // let the debounce elapse
	sc.step(ctx)                         // revive + restore

	if got := sc.sup.Down(); len(got) != 0 {
		t.Fatalf("Down after repair = %v", got)
	}
	if n := sc.sup.Repairs(); n != 2 {
		t.Fatalf("Repairs = %d, want 2", n)
	}
	verifyRecords(t, sc.cluster, want) // zero record loss
	for _, node := range []transport.NodeID{1, 3} {
		got := phases(sc.sup.Journal(), node)
		if len(got) < 2 || got[0] != RepairDetected || got[len(got)-1] != RepairCompleted {
			t.Fatalf("node %d journal phases = %v", node, got)
		}
		if st := sc.det.State(node); st != transport.NodeUp {
			t.Fatalf("node %d post-repair state = %v", node, st)
		}
	}
	if err := sc.sup.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy after repair: %v", err)
	}
}

func TestSupervisorNeverSyncedRevivesEmpty(t *testing.T) {
	sc := newSupervisedCluster(t, 3, 1, SupervisorConfig{
		Debounce:      time.Millisecond,
		RepairBackoff: time.Millisecond,
	})
	ctx := context.Background()
	// No Sync has ever happened: a failed node has no recovery point and
	// must come back empty without the supervisor treating it as a
	// parity failure.
	sc.kill(2)
	sc.step(ctx)
	sc.clk.Advance(5 * time.Millisecond)
	sc.step(ctx)

	if got := sc.sup.Down(); len(got) != 0 {
		t.Fatalf("Down = %v, want empty (revived empty)", got)
	}
	got := phases(sc.sup.Journal(), 2)
	if len(got) < 2 || got[len(got)-1] != RepairNothingToRestore {
		t.Fatalf("journal phases = %v, want ... nothing-to-restore", got)
	}
	if st := sc.det.State(2); st != transport.NodeUp {
		t.Fatalf("revived node state = %v", st)
	}
	if sc.sup.Alarm() != "" {
		t.Fatalf("alarm raised for never-synced revive: %q", sc.sup.Alarm())
	}
}

func TestSupervisorAbsorbsFlaps(t *testing.T) {
	sc := newSupervisedCluster(t, 3, 1, SupervisorConfig{
		Debounce: time.Hour, // nothing becomes ripe in this test
	})
	ctx := context.Background()
	loadRecords(t, sc.cluster, 20)
	if err := sc.guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	sc.kill(1)
	sc.step(ctx)
	if got := sc.sup.Down(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Down = %v", got)
	}
	// The node returns before the debounce elapses: the supervisor must
	// drop it without a restore.
	sc.reviveEmpty(1)
	sc.step(ctx)
	if got := sc.sup.Down(); len(got) != 0 {
		t.Fatalf("Down after flap = %v", got)
	}
	got := phases(sc.sup.Journal(), 1)
	if len(got) != 2 || got[0] != RepairDetected || got[1] != RepairFlap {
		t.Fatalf("journal phases = %v, want [detected flap]", got)
	}
	if n := sc.sup.Repairs(); n != 0 {
		t.Fatalf("Repairs = %d for a flap", n)
	}
}

func TestSupervisorAlarmsBeyondBudget(t *testing.T) {
	sc := newSupervisedCluster(t, 4, 1, SupervisorConfig{
		Debounce:      time.Millisecond,
		RepairBackoff: time.Millisecond,
	})
	ctx := context.Background()
	want := loadRecords(t, sc.cluster, 40)
	if err := sc.guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// k=1 but two nodes die: repair must refuse and alarm, not corrupt.
	sc.kill(1, 2)
	sc.step(ctx)
	sc.clk.Advance(5 * time.Millisecond)
	sc.step(ctx)

	if sc.sup.Alarm() == "" {
		t.Fatal("no alarm with failures beyond the parity budget")
	}
	if n := sc.sup.Repairs(); n != 0 {
		t.Fatalf("Repairs = %d despite exceeded budget", n)
	}
	for _, r := range sc.sup.Journal() {
		if r.Phase == RepairStarted || r.Phase == RepairCompleted {
			t.Fatalf("repair attempted beyond budget: %+v", r)
		}
	}
	actx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := sc.sup.AwaitHealthy(actx); !errors.Is(err, ErrRepairBudgetExceeded) {
		t.Fatalf("AwaitHealthy = %v, want ErrRepairBudgetExceeded", err)
	}

	// The partition around node 1 heals (it returns with its data): the
	// budget is met again, the alarm clears, the flap exits cleanly, and
	// the remaining real failure is repaired with all records intact.
	sc.healPartition(1)
	sc.step(ctx)
	sc.step(ctx)
	sc.clk.Advance(5 * time.Millisecond)
	sc.step(ctx)
	if a := sc.sup.Alarm(); a != "" {
		t.Fatalf("alarm still active after recovery: %q", a)
	}
	awctx, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	for sc.sup.AwaitHealthy(awctx) != nil {
		time.Sleep(2 * time.Millisecond)
		sc.step(ctx)
		if awctx.Err() != nil {
			t.Fatal("cluster never converged after operator intervention")
		}
	}
	verifyRecords(t, sc.cluster, want)
}

// newMarkerCluster is a 3-node supervised cluster (parity K=1, repair
// held off by an hour's debounce) whose index file holds the chaos
// corpus' records 1..20 — GRIDLOCK in every fourth — in one bucket, so
// every index piece lives on bucket 0's node. It returns that node and
// the GRIDLOCK query.
func newMarkerCluster(t *testing.T) (*supervisedCluster, *core.Pipeline, *core.Query, transport.NodeID) {
	t.Helper()
	sc := newSupervisedCluster(t, 3, 1, SupervisorConfig{Debounce: time.Hour})
	pl := testPipeline(t, 4, 2, 1)
	for rid := uint64(1); rid <= 20; rid++ {
		indexRecord(t, sc.cluster, pl, rid, newChaosCorpus().record(rid))
	}
	if b := sc.cluster.State(FileIndex).Buckets(); b != 1 {
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

// TestSearchReportsDownNodeAfterLateInsert: a record inserted after the
// last Sync, whose index node then dies, must not silently drop out of
// the answer — the search fails with an IncompleteError naming the node
// instead of answering from the stale recovery point.
func TestSearchReportsDownNodeAfterLateInsert(t *testing.T) {
	sc, pl, query, victim := newMarkerCluster(t)
	ctx := context.Background()
	if err := sc.guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	indexRecord(t, sc.cluster, pl, 100, []byte("RECORD 0100 HAS GRIDLOCK INSIDE"))
	sc.kill(victim)
	sc.step(ctx)
	if got := sc.sup.Down(); len(got) != 1 || got[0] != victim {
		t.Fatalf("Down = %v, want [%d]", got, victim)
	}
	rids, err := sc.cluster.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	wantIncomplete(t, err, victim)
	if rids != nil {
		t.Fatalf("incomplete search also returned RIDs %v", rids)
	}
}

// TestSearchReportsDownNodeAfterLateDelete: a record deleted after the
// last Sync, whose index node then dies, must not come back as a ghost.
func TestSearchReportsDownNodeAfterLateDelete(t *testing.T) {
	sc, pl, query, victim := newMarkerCluster(t)
	ctx := context.Background()
	if err := sc.guard.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sc.cluster.DeleteIndexed(ctx, FileIndex, 4, pl.Chunkings(), pl.K(), SlotBits(pl.Chunkings(), pl.K())); err != nil {
		t.Fatal(err)
	}
	sc.kill(victim)
	sc.step(ctx)
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
// grows past JournalCap, sheds oldest-first, counts what it shed, and
// keeps sequence numbers monotonic so an auditor can see the gap.
func TestRepairJournalRingBound(t *testing.T) {
	sc := newSupervisedCluster(t, 3, 1, SupervisorConfig{JournalCap: 8})
	for i := 0; i < 20; i++ {
		sc.sup.journalOne(transport.NodeID(i%3), RepairDetected, "synthetic")
	}
	length, dropped, capacity := sc.sup.JournalStats()
	if capacity != 8 {
		t.Fatalf("JournalCap = %d, want 8", capacity)
	}
	if length != 8 {
		t.Fatalf("journal length = %d, want bounded at 8", length)
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	j := sc.sup.Journal()
	if len(j) != 8 {
		t.Fatalf("Journal() length = %d, want 8", len(j))
	}
	for i, r := range j {
		if want := uint64(13 + i); r.Seq != want {
			t.Fatalf("journal[%d].Seq = %d, want %d (newest records must survive in order)", i, r.Seq, want)
		}
	}
}
