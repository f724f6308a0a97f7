package esdds

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/lhstar"
	"repro/internal/sdds"
)

func checkMigrationInvariant(t *testing.T, m sdds.MigrationStats) {
	t.Helper()
	if m.Started != m.Committed+m.Aborted+uint64(m.InFlight) {
		t.Fatalf("migration ledger invariant broken: %+v (started != committed+aborted+in_flight)", m)
	}
}

// TestMigrationLedgerSurvivesClusterReopen grows a durable cluster
// through several splits, then reopens it over the same directory:
// the coordinator's migration ledger (and the LH* state folded from
// it) must come back from migrations.log, and every record must stay
// reachable.
func TestMigrationLedgerSurvivesClusterReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	key := KeyFromPassphrase("migration")

	contents := make(map[uint64][]byte)
	for i := 1; i <= 40; i++ {
		contents[uint64(i)] = []byte(fmt.Sprintf("migration ledger record %02d", i))
	}

	c1 := NewMemoryCluster(2, WithDataDir(dir))
	st1, err := Open(c1, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for rid, content := range contents {
		if err := st1.Insert(ctx, rid, content); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
	}
	before := c1.MigrationStats()
	if before.Started == 0 {
		t.Fatal("growth drove no migrations; the load was too small to split")
	}
	if before.InFlight != 0 {
		t.Fatalf("migrations left in flight after clean growth: %+v", before)
	}
	checkMigrationInvariant(t, before)
	if got := c1.ClusterHealth().Migrations; got != before {
		t.Fatalf("ClusterHealth().Migrations = %+v, want %+v", got, before)
	}
	recState := c1.inner.Coordinator().File(sdds.FileRecords).State
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewMemoryCluster(2, WithDataDir(dir))
	defer c2.Close()
	after := c2.MigrationStats()
	if after.Started != before.Started || after.Committed != before.Committed || after.Aborted != before.Aborted {
		t.Fatalf("ledger not durable across reopen: before %+v, after %+v", before, after)
	}
	if after.InFlight != 0 {
		t.Fatalf("reopen manufactured in-flight migrations: %+v", after)
	}
	checkMigrationInvariant(t, after)
	// The coordinator refolds its LH* state from the committed intents
	// instead of restarting from a single bucket.
	if got := c2.inner.Coordinator().File(sdds.FileRecords).State; got != recState {
		t.Fatalf("coordinator state after reopen = %+v, want %+v (folded from ledger)", got, recState)
	}
	st2, err := Open(c2, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for rid, want := range contents {
		got, err := st2.Get(ctx, rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) after reopen = %q, %v; want %q", rid, got, err, want)
		}
	}
}

// TestMigrationInterruptedByNodeLossResumes kills the split target
// before the overflow that triggers growth: the put surfaces the
// split failure, the migration stays journalled in-flight with the
// source bucket frozen but readable, and an explicit ResumeMigrations
// after the node returns rolls the handoff forward with zero loss.
func TestMigrationInterruptedByNodeLossResumes(t *testing.T) {
	ctx := context.Background()
	c := NewMemoryCluster(2, WithDataDir(t.TempDir()))
	defer c.Close()
	c.inner.SetMaxLoad(sdds.FileRecords, 4)
	val := func(i int) []byte { return []byte(fmt.Sprintf("mig-record-%02d", i)) }
	for i := 0; i < 4; i++ {
		if err := c.inner.Put(ctx, sdds.FileRecords, uint64(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	// The fifth put overflows the file; the absorb cannot reach the
	// dead target, so the put reports the split failure while the
	// record itself is already stored on the source.
	if err := c.inner.Put(ctx, sdds.FileRecords, 4, val(4)); err == nil {
		t.Fatal("split toward a dead node reported success")
	}
	mid := c.MigrationStats()
	if mid.Started != 1 || mid.InFlight != 1 {
		t.Fatalf("after interrupted split: %+v, want 1 started / 1 in flight", mid)
	}
	checkMigrationInvariant(t, mid)
	// The frozen source keeps serving reads for the whole moved set.
	for i := 0; i < 5; i++ {
		got, ok, err := c.inner.Get(ctx, sdds.FileRecords, uint64(i))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("mid-flight Get(%d) = %q, %v, %v", i, got, ok, err)
		}
	}

	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ResumeMigrations(ctx); err != nil || n != 1 {
		t.Fatalf("ResumeMigrations = %d, %v; want 1, nil", n, err)
	}
	done := c.MigrationStats()
	if done.InFlight != 0 || done.Committed != 1 || done.Resumed == 0 {
		t.Fatalf("after resume: %+v, want committed with zero in flight", done)
	}
	checkMigrationInvariant(t, done)
	if got := c.inner.Coordinator().File(sdds.FileRecords).State.Buckets(); got != 2 {
		t.Fatalf("resumed split left %d buckets, want 2", got)
	}
	for i := 0; i < 5; i++ {
		got, ok, err := c.inner.Get(ctx, sdds.FileRecords, uint64(i))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("post-resume Get(%d) = %q, %v, %v", i, got, ok, err)
		}
	}
}

// TestSelfHealingResumesInterruptedMigration is the no-operator
// version: with WithSelfHealing, the supervisor that revives the dead
// split target also rolls the journalled handoff forward as part of
// finishing the repair.
func TestSelfHealingResumesInterruptedMigration(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	hc := newHealClock()
	c := NewMemoryCluster(3, append([]ClusterOption{WithDataDir(dir)}, hc.selfHealing()...)...)
	defer c.Close()
	heal := c.SelfHealing()
	c.inner.SetMaxLoad(sdds.FileRecords, 4)
	val := func(i int) []byte { return []byte(fmt.Sprintf("heal-record-%02d", i)) }
	for i := 0; i < 4; i++ {
		if err := c.inner.Put(ctx, sdds.FileRecords, uint64(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.inner.Put(ctx, sdds.FileRecords, 4, val(4)); err == nil {
		t.Fatal("split toward a dead node reported success")
	}
	if mid := c.MigrationStats(); mid.InFlight != 1 {
		t.Fatalf("after interrupted split: %+v, want 1 in flight", mid)
	}

	// The resume runs inside the supervision pass that finishes the
	// repair, so once the cluster has converged it is done.
	hc.until(t, "convergence", func() bool { return converged(c) })
	if err := heal.AwaitHealthy(ctx); err != nil {
		t.Fatalf("cluster never healed: %v", err)
	}
	done := c.MigrationStats()
	if done.Committed != done.Started || done.Resumed == 0 {
		t.Fatalf("after self-heal: %+v, want everything committed via resume", done)
	}
	checkMigrationInvariant(t, done)
	for i := 0; i < 5; i++ {
		got, ok, err := c.inner.Get(ctx, sdds.FileRecords, uint64(i))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("post-heal Get(%d) = %q, %v, %v", i, got, ok, err)
		}
	}
}

// TestReopenKeepsRecordCount reopens a grown durable cluster: the
// ledger gives back each file's shape and the nodes' census its record
// count, so the first delete after the reopen merges nothing. A count
// restarted at zero would instead merge the record file down to one
// bucket on that delete.
func TestReopenKeepsRecordCount(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	key := KeyFromPassphrase("reopen count")
	files := []sdds.FileID{sdds.FileRecords, sdds.FileIndex, sdds.FileWords}

	c1 := NewMemoryCluster(3, WithDataDir(dir))
	st1, err := Open(c1, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for rid := uint64(1); rid <= 400; rid++ {
		if err := st1.Insert(ctx, rid, []byte(fmt.Sprintf("reopen record %03d", rid))); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
	}
	sizes := make(map[sdds.FileID]int)
	states := make(map[sdds.FileID]lhstar.State)
	for _, id := range files {
		sizes[id], states[id] = c1.inner.Coordinator().File(id).Size, c1.inner.Coordinator().File(id).State
	}
	if states[sdds.FileRecords].Buckets() < 50 {
		t.Fatalf("record file grew to only %d buckets", states[sdds.FileRecords].Buckets())
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewMemoryCluster(3, WithDataDir(dir))
	defer c2.Close()
	st2, err := Open(c2, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range files {
		if got := c2.inner.Coordinator().File(id).Size; got != sizes[id] {
			t.Errorf("file %d: Size after reopen = %d, want %d", id, got, sizes[id])
		}
		if got := c2.inner.Coordinator().File(id).State; got != states[id] {
			t.Errorf("file %d: State after reopen = %+v, want %+v", id, got, states[id])
		}
	}
	if err := st2.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range files {
		if m := c2.inner.Coordinator().File(id).Merges; m != 0 {
			t.Errorf("file %d: one delete after reopen ran %d merges", id, m)
		}
	}
	if got, want := c2.inner.Coordinator().File(sdds.FileRecords).Size, sizes[sdds.FileRecords]-1; got != want {
		t.Errorf("record file Size after one delete = %d, want %d", got, want)
	}
}

// TestMigrationMetricsSurviveReopen: the migration counters of a
// reopened cluster start from its ledger, so after the reopen resumes
// an interrupted split they still agree with MigrationStats and keep
// started == committed + aborted + in_flight.
func TestMigrationMetricsSurviveReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c1 := NewMemoryCluster(2, WithDataDir(dir), WithObservability())
	c1.inner.SetMaxLoad(sdds.FileRecords, 4)
	for i := 0; i < 4; i++ {
		if err := c1.inner.Put(ctx, sdds.FileRecords, uint64(i), []byte("metrics-record")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := c1.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c1.inner.Put(ctx, sdds.FileRecords, 4, []byte("metrics-record")); err == nil {
		t.Fatal("split toward a dead node reported success")
	}
	c1.Close()

	c2 := NewMemoryCluster(2, WithDataDir(dir), WithObservability())
	defer c2.Close()
	m := c2.MigrationStats()
	if m.Started != 1 || m.Committed != 1 || m.InFlight != 0 {
		t.Fatalf("after reopen: %+v, want the interrupted split resumed and committed", m)
	}
	reg := c2.Metrics()
	got := sdds.MigrationStats{
		Started:   reg.CounterValue("sdds_migrations_started_total"),
		Committed: reg.CounterValue("sdds_migrations_committed_total"),
		Aborted:   reg.CounterValue("sdds_migrations_aborted_total"),
		Resumed:   m.Resumed, // per process by design
		InFlight:  int(reg.GaugeValue("sdds_migrations_in_flight")),
	}
	if got != m {
		t.Fatalf("migration metrics %+v disagree with the ledger %+v", got, m)
	}
	checkMigrationInvariant(t, got)
}
