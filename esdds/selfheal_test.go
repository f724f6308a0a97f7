package esdds

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sdds"
	"repro/internal/transport"
)

// fastSelfHealing tunes the detector for test speed: a probe round
// every 20ms of the fake clock and one failure confirming a node down.
func fastSelfHealing() SelfHealingConfig {
	return SelfHealingConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     1,
	}
}

// withClock runs the cluster's self-healing loop and injected fault
// delays on clk instead of the wall clock.
func withClock(clk clock.Clock) ClusterOption {
	return func(c *clusterConfig) { c.clk = clk }
}

// healLoops is how many Afters a self-healing cluster keeps pending
// while idle: the detector's probe loop and the supervisor's poll loop.
const healLoops = 2

// healClock is the fake clock of a self-healing cluster, stepped one
// loop wake-up at a time: firing one After and waiting until both loops
// are pending again runs each probe round or supervision pass to its
// end before the next begins, in the same order on every run.
type healClock struct{ *clock.FakeClock }

func newHealClock() healClock {
	return healClock{clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))}
}

// selfHealing is the option pair of a self-healing cluster on hc.
func (hc healClock) selfHealing() []ClusterOption {
	return []ClusterOption{WithSelfHealing(fastSelfHealing()), withClock(hc.FakeClock)}
}

func (hc healClock) step() {
	hc.Step()
	hc.BlockUntil(healLoops)
}

// until steps the clock until done holds, failing the test after ten
// minutes of fake time.
func (hc healClock) until(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := hc.Now().Add(10 * time.Minute)
	for !done() {
		if hc.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		hc.step()
	}
}

// awaitPhase steps the clock until node's journal reaches want.
func (hc healClock) awaitPhase(t *testing.T, heal *SelfHealing, node int, want sdds.RepairPhase) {
	t.Helper()
	hc.until(t, fmt.Sprintf("node %d repair phase %v", node, want), func() bool {
		return slices.Contains(phasesFor(heal.Journal(), node), want)
	})
}

// converged reports every node up with nothing down and no alarm: the
// condition AwaitHealthy waits for, read without registering a wait on
// the clock.
func converged(c *Cluster) bool {
	h := c.ClusterHealth()
	if h.Alarm != "" || len(h.Down) != 0 {
		return false
	}
	for _, n := range h.Nodes {
		if n.State != "up" {
			return false
		}
	}
	return true
}

// TestSelfHealingClusterEndToEnd is the acceptance scenario for the
// self-healing availability loop, over the public API only:
//
//  1. a workload loads a store of durable nodes,
//  2. two nodes are killed mid-workload; every Search either returns
//     exactly the baseline or fails with an IncompleteError naming only
//     dead nodes and carrying a subset of the baseline — never a stale
//     or spurious answer passed off as complete,
//  3. the supervisor detects the dead nodes and revives each from its
//     own journal automatically — no operator call — and the cluster
//     converges back to fully healthy with all records intact.
func TestSelfHealingClusterEndToEnd(t *testing.T) {
	killReviveScenario(t)
}

// TestSelfHealingJournalReplays: on the fake clock the kill/revive
// scenario is a replay — two runs journal the same records, the same
// instants included.
func TestSelfHealingJournalReplays(t *testing.T) {
	first, second := killReviveScenario(t), killReviveScenario(t)
	same := func(a, b RepairRecord) bool {
		return a.Seq == b.Seq && a.Node == b.Node && a.Phase == b.Phase && a.At.Equal(b.At) && a.Detail == b.Detail
	}
	if !slices.EqualFunc(first, second, same) {
		t.Fatalf("two runs journaled differently:\n%+v\n%+v", first, second)
	}
	// The stamps are the fake clock's: each repair starts no sooner
	// than the debounce after its detection.
	detected := map[transport.NodeID]time.Time{}
	for _, r := range first {
		switch r.Phase {
		case sdds.RepairDetected:
			detected[r.Node] = r.At
		case sdds.RepairStarted:
			if d := r.At.Sub(detected[r.Node]); d < 100*time.Millisecond {
				t.Fatalf("node %d repair started %v after detection, inside the debounce: %+v", r.Node, d, first)
			}
		}
	}
}

// killReviveScenario runs the end-to-end scenario on a fresh cluster
// and fake clock and returns the repair journal.
func killReviveScenario(t *testing.T) []RepairRecord {
	t.Helper()
	hc := newHealClock()
	cluster := NewMemoryCluster(6, append([]ClusterOption{WithDataDir(t.TempDir())}, hc.selfHealing()...)...)
	defer cluster.Close()
	heal := cluster.SelfHealing()
	if heal == nil {
		t.Fatal("SelfHealing handle missing")
	}

	store, err := Open(cluster, KeyFromPassphrase("self-heal"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4, // force splits so every node holds buckets
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	marker := []byte("GRIDLOCK")
	want := make(map[uint64][]byte)
	for rid := uint64(1); rid <= 60; rid++ {
		content := []byte(fmt.Sprintf("record %04d perfectly ordinary text", rid))
		if rid%5 == 0 {
			content = []byte(fmt.Sprintf("record %04d carries the GRIDLOCK marker", rid))
		}
		if err := store.Insert(ctx, rid, content); err != nil {
			t.Fatal(err)
		}
		want[rid] = content
	}
	baseline, err := store.Search(ctx, marker, SearchVerified)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 12 {
		t.Fatalf("baseline = %v, want the 12 GRIDLOCK records", baseline)
	}

	// Kill two nodes mid-workload.
	for _, n := range []int{1, 4} {
		if err := cluster.KillNode(n); err != nil {
			t.Fatal(err)
		}
	}

	// Until convergence, every search either answers exactly the baseline
	// or says which dead nodes it is missing.
	hc.until(t, "convergence", func() bool {
		rids, err := store.Search(ctx, marker, SearchVerified)
		var ie *IncompleteError
		switch {
		case errors.As(err, &ie):
			for _, f := range ie.Failed {
				if f.Node != 1 && f.Node != 4 {
					t.Fatalf("search mid-repair blamed live node %d: %v", f.Node, err)
				}
			}
			for _, r := range ie.RIDs {
				if !slices.Contains(baseline, r) {
					t.Fatalf("partial answer %v holds %d, not in baseline %v", ie.RIDs, r, baseline)
				}
			}
		case err != nil:
			t.Fatalf("search during failure/repair: %v", err)
		case !slices.Equal(rids, baseline):
			t.Fatalf("search returned %v as complete, want baseline %v", rids, baseline)
		}
		return converged(cluster)
	})
	if err := heal.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy once converged: %v", err)
	}
	// Converged: repairs journaled, records intact, strict search exact.
	if n := heal.Repairs(); n != 2 {
		t.Errorf("Repairs = %d, want 2", n)
	}
	completed := map[int]bool{}
	for _, r := range heal.Journal() {
		if r.Phase == sdds.RepairLocalRecovery {
			completed[int(r.Node)] = true
		}
	}
	if !completed[1] || !completed[4] {
		t.Errorf("journal missing completions: %+v", heal.Journal())
	}
	for rid, content := range want {
		got, err := store.Get(ctx, rid)
		if err != nil {
			t.Fatalf("Get(%d) after repair: %v", rid, err)
		}
		if string(got) != string(content) {
			t.Fatalf("Get(%d) corrupted after repair", rid)
		}
	}
	rids, err := store.Search(ctx, marker, SearchVerified)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(baseline) {
		t.Fatalf("post-repair search = %v, want %v", rids, baseline)
	}

	// The repaired cluster accepts and finds new writes.
	if err := store.Insert(ctx, 1000, []byte("late GRIDLOCK arrival")); err != nil {
		t.Fatalf("insert after repair: %v", err)
	}
	rids, err = store.Search(ctx, marker, SearchVerified)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(baseline)+1 {
		t.Fatalf("post-repair insert not searchable: %v", rids)
	}
	health := cluster.ClusterHealth()
	if !health.SelfHealing || health.Alarm != "" || len(health.Down) != 0 || len(health.Lost) != 0 {
		t.Errorf("ClusterHealth after convergence = %+v", health)
	}
	return heal.Journal()
}

// TestSelfHealingAlarmsOnLostDataDir: a node whose data dir is wiped
// before it dies cannot be revived — its store would come back fresh
// and serve as if its records never existed. ReviveNode refuses, the
// supervisor raises a sticky alarm naming the node and does not try
// again, AwaitHealthy fails fast, and searches report the node missing.
func TestSelfHealingAlarmsOnLostDataDir(t *testing.T) {
	dir := t.TempDir()
	hc := newHealClock()
	cluster := NewMemoryCluster(4, append([]ClusterOption{WithDataDir(dir)}, hc.selfHealing()...)...)
	defer cluster.Close()
	heal := cluster.SelfHealing()

	store, err := Open(cluster, KeyFromPassphrase("alarm"), Config{
		ChunkSize:     4,
		Chunkings:     2,
		MaxBucketLoad: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid := uint64(1); rid <= 40; rid++ {
		if err := store.Insert(ctx, rid, []byte(fmt.Sprintf("record %04d with GRIDLOCK", rid))); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 2
	if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("node-%d", victim))); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	hc.awaitPhase(t, heal, victim, sdds.RepairAlarm)
	if a := heal.Alarm(); !strings.Contains(a, fmt.Sprintf("node %d", victim)) {
		t.Fatalf("Alarm = %q, want it to name node %d", a, victim)
	}
	if err := heal.AwaitHealthy(ctx); !errors.Is(err, sdds.ErrNodeStateLost) {
		t.Fatalf("AwaitHealthy = %v, want ErrNodeStateLost", err)
	}
	if n := heal.Repairs(); n != 0 {
		t.Fatalf("Repairs = %d for a node whose state is lost", n)
	}
	// The node is not revived again: one attempt, one alarm, ever —
	// not even after several repair backoffs.
	for i := 0; i < 100; i++ {
		hc.step()
	}
	if got := phasesFor(heal.Journal(), victim); !slices.Equal(got, []sdds.RepairPhase{sdds.RepairDetected, sdds.RepairStarted, sdds.RepairAlarm}) {
		t.Fatalf("journal phases = %v, want [detected started alarm]", got)
	}
	if err := cluster.ReviveNode(victim); !errors.Is(err, sdds.ErrNodeStateLost) {
		t.Fatalf("ReviveNode over a lost data dir = %v, want ErrNodeStateLost", err)
	}

	// Searches must not pretend completeness: the lost node surfaces as
	// failed.
	_, err = store.Search(ctx, []byte("GRIDLOCK"), SearchFast)
	var ie *IncompleteError
	if !errors.As(err, &ie) || len(ie.Failed) != 1 || ie.Failed[0].Node != victim {
		t.Fatalf("Search with a lost node = %v, want an IncompleteError naming node %d", err, victim)
	}
	health := cluster.ClusterHealth()
	if health.Alarm == "" || !slices.Equal(health.Lost, []int{victim}) || !slices.Equal(health.Down, []int{victim}) {
		t.Errorf("ClusterHealth = %+v, want an alarm with node %d lost and down", health, victim)
	}
}

// TestSelfHealingWorksWithoutRetryLayer: the loop must run on active
// probes alone. No client traffic follows the kill, so no passive signal
// about the dead node reaches the detector before its repair.
func TestSelfHealingWorksWithoutRetryLayer(t *testing.T) {
	hc := newHealClock()
	cluster := NewMemoryCluster(3, append([]ClusterOption{WithDataDir(t.TempDir())}, hc.selfHealing()...)...)
	defer cluster.Close()
	heal := cluster.SelfHealing()

	store, err := Open(cluster, KeyFromPassphrase("probes-only"), Config{
		ChunkSize:     4,
		MaxBucketLoad: 4, // splits spread records across all nodes
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid := uint64(1); rid <= 20; rid++ {
		if err := store.Insert(ctx, rid, []byte(fmt.Sprintf("plain record %d", rid))); err != nil {
			t.Fatal(err)
		}
	}
	passive := cluster.ClusterHealth().Nodes[2].PassiveSignals
	cluster.KillNode(2)
	// Active probes alone must detect and repair: step to the completed
	// repair, then to full convergence.
	hc.until(t, "probe-only repair", func() bool { return heal.Repairs() > 0 })
	if got := cluster.ClusterHealth().Nodes[2].PassiveSignals; got != passive {
		t.Fatalf("node 2 took %d passive signals with no client traffic", got-passive)
	}
	hc.until(t, "convergence", func() bool { return converged(cluster) })
	if err := heal.AwaitHealthy(ctx); err != nil {
		t.Fatalf("probe-only self-healing never converged: %v", err)
	}
	for rid := uint64(1); rid <= 20; rid++ {
		got, err := store.Get(ctx, rid)
		if err != nil || string(got) != fmt.Sprintf("plain record %d", rid) {
			t.Fatalf("Get(%d) after probe-only repair = %q, %v", rid, got, err)
		}
	}
}

// TestClusterHealthWithoutSelfHealing: the snapshot must degrade
// gracefully on clusters without the availability loop.
func TestClusterHealthWithoutSelfHealing(t *testing.T) {
	cluster := NewMemoryCluster(2, WithFaultInjection(7))
	defer cluster.Close()
	if cluster.SelfHealing() != nil {
		t.Fatal("SelfHealing handle on a plain cluster")
	}
	store, err := Open(cluster, KeyFromPassphrase("plain"), Config{ChunkSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid := uint64(1); rid <= 8; rid++ {
		if err := store.Insert(ctx, rid, []byte("some record content")); err != nil {
			t.Fatal(err)
		}
	}
	h := cluster.ClusterHealth()
	if h.SelfHealing || len(h.Nodes) != 2 {
		t.Fatalf("ClusterHealth = %+v", h)
	}
	sawFaultStats := false
	for _, n := range h.Nodes {
		if n.State != "n/a" {
			t.Fatalf("detector state without self-healing = %q", n.State)
		}
		if n.Faults != nil {
			sawFaultStats = true
		}
	}
	if !sawFaultStats {
		t.Fatal("fault-injection stats missing on a fault-injected cluster with traffic")
	}
}

// TestClientTrafficFeedsDetector: with the clock standing still no
// probe runs and nothing is repaired, so a client send to a killed node
// is the only evidence the detector gets, and it must move the node
// toward down — one failed send to suspect, a second to down.
func TestClientTrafficFeedsDetector(t *testing.T) {
	cluster := NewMemoryCluster(3, WithDataDir(t.TempDir()), WithSelfHealing(SelfHealingConfig{}),
		withClock(clock.NewFake(time.Unix(0, 0))))
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("passive"), Config{ChunkSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := store.Insert(ctx, 1, []byte("a plain record")); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suspect", "down"} {
		var ie *IncompleteError
		if _, err := store.Search(ctx, []byte("plain"), SearchFast); !errors.As(err, &ie) {
			t.Fatalf("Search with node 1 killed = %v, want an IncompleteError", err)
		}
		n := cluster.ClusterHealth().Nodes[1]
		if n.State != want || n.ActiveProbes != 0 || n.PassiveSignals == 0 {
			t.Fatalf("node 1 health = %+v, want %s from passive signals only", n, want)
		}
	}
}
