package esdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sdds"
	"repro/internal/wal"
)

func durableConfig() Config {
	return Config{ChunkSize: 4, Chunkings: 2, MaxBucketLoad: 4, WordSearch: true}
}

func sortedRIDs(rids []uint64) []uint64 {
	out := append([]uint64(nil), rids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameRIDs(a, b []uint64) bool {
	a, b = sortedRIDs(a), sortedRIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// searchAllModes runs the same query under every search mode.
func searchAllModes(t *testing.T, ctx context.Context, st *Store, query []byte) map[SearchMode][]uint64 {
	t.Helper()
	out := make(map[SearchMode][]uint64)
	for _, mode := range []SearchMode{SearchFast, SearchVerified, SearchExact} {
		rids, err := st.Search(ctx, query, mode)
		if err != nil {
			t.Fatalf("search mode %v: %v", mode, err)
		}
		out[mode] = sortedRIDs(rids)
	}
	return out
}

// TestClusterRestartRecoversState is the whole-cluster half of the
// durability story: every record inserted into a WithDataDir cluster
// must come back — by Get, by substring search in every mode, and by
// word search — after the cluster is closed and reopened over the same
// directory, with every node reporting a local "recovered" outcome.
// A third reopen with withLinearScan then checks the satellite
// equivalence: the posting index rebuilt from durable replay must
// answer exactly like the linear-scan reference (and like the fresh
// in-memory insert baseline).
func TestClusterRestartRecoversState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	key := KeyFromPassphrase("durability")
	query := []byte("durable payload")

	contents := make(map[uint64][]byte)
	for i := 1; i <= 12; i++ {
		contents[uint64(i)] = []byte(fmt.Sprintf("durable payload record %02d", i))
	}

	c1 := NewMemoryCluster(3, WithDataDir(dir))
	st1, err := Open(c1, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for rid, content := range contents {
		if err := st1.Insert(ctx, rid, content); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
	}
	for i := 0; i < 3; i++ {
		rec, ok := c1.NodeRecovery(i)
		if !ok || rec.Outcome != "fresh" {
			t.Fatalf("node %d recovery on first start = %+v, %v; want fresh", i, rec, ok)
		}
	}
	baseline := searchAllModes(t, ctx, st1, query)
	if len(baseline[SearchVerified]) != len(contents) {
		t.Fatalf("baseline verified search found %d of %d records", len(baseline[SearchVerified]), len(contents))
	}
	baselineWords, err := st1.SearchWord(ctx, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("closing first cluster: %v", err)
	}

	// Reopen over the same directory: state must come back from local
	// checkpoints+journals alone (no re-insert).
	c2 := NewMemoryCluster(3, WithDataDir(dir))
	defer c2.Close()
	for i := 0; i < 3; i++ {
		rec, ok := c2.NodeRecovery(i)
		if !ok || rec.Outcome != "recovered" {
			t.Fatalf("node %d recovery on restart = %+v, %v; want recovered", i, rec, ok)
		}
	}
	st2, err := Open(c2, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for rid, want := range contents {
		got, err := st2.Get(ctx, rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) after restart = %q, %v; want %q", rid, got, err, want)
		}
	}
	replayed := searchAllModes(t, ctx, st2, query)
	for mode, want := range baseline {
		if !sameRIDs(replayed[mode], want) {
			t.Fatalf("mode %v after restart: %v, want %v", mode, replayed[mode], want)
		}
	}
	words, err := st2.SearchWord(ctx, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRIDs(words, baselineWords) {
		t.Fatalf("word search after restart: %v, want %v", words, baselineWords)
	}

	// Posting-index equivalence: the index rebuilt during replay must be
	// indistinguishable from the linear-scan reference over the same
	// durable state.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := NewMemoryCluster(3, WithDataDir(dir), withLinearScan())
	defer c3.Close()
	st3, err := Open(c3, key, durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	linear := searchAllModes(t, ctx, st3, query)
	for mode, want := range baseline {
		if !sameRIDs(linear[mode], want) {
			t.Fatalf("mode %v linear-scan after restart: %v, want %v", mode, linear[mode], want)
		}
	}
}

// victimNode picks the node whose journal has the most durable state —
// the interesting one to kill.
func victimNode(t *testing.T, dir string, n int) int {
	t.Helper()
	best, bestSize := -1, int64(0)
	for i := 0; i < n; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%d", i), "wal.log"))
		if err != nil {
			continue
		}
		if fi.Size() > bestSize {
			best, bestSize = i, fi.Size()
		}
	}
	if best < 0 || bestSize < 64 {
		t.Fatalf("no node accumulated a meaningful journal (best %d, %d bytes)", best, bestSize)
	}
	return best
}

func phasesFor(journal []RepairRecord, node int) []sdds.RepairPhase {
	var out []sdds.RepairPhase
	for _, r := range journal {
		if int(r.Node) == node {
			out = append(out, r.Phase)
		}
	}
	return out
}

// TestSelfHealingPrefersLocalRecovery kills a durable node after a
// stream of writes. The supervisor must let the revived node replay its
// own journal (RepairLocalRecovery): every acknowledged record, up to
// the last one, must survive the crash, with no alarm raised.
func TestSelfHealingPrefersLocalRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	hc := newHealClock()
	c := NewMemoryCluster(4, append([]ClusterOption{WithDataDir(dir)}, hc.selfHealing()...)...)
	defer c.Close()
	st, err := Open(c, KeyFromPassphrase("durability"), durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	heal := c.SelfHealing()

	contents := make(map[uint64][]byte)
	for i := 1; i <= 20; i++ {
		content := []byte(fmt.Sprintf("durable payload record %02d", i))
		contents[uint64(i)] = content
		if err := st.Insert(ctx, uint64(i), content); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	victim := victimNode(t, dir, 4)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	hc.awaitPhase(t, heal, victim, sdds.RepairLocalRecovery)
	hc.until(t, "convergence", func() bool { return converged(c) })
	if err := heal.AwaitHealthy(ctx); err != nil {
		t.Fatalf("AwaitHealthy after local recovery: %v", err)
	}
	for _, p := range phasesFor(heal.Journal(), victim) {
		if p == sdds.RepairAlarm {
			t.Fatalf("node %d raised an alarm despite a replayable journal", victim)
		}
	}

	// Every record must have survived the crash.
	for rid, want := range contents {
		got, err := st.Get(ctx, rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) after local recovery = %q, %v; want %q", rid, got, err, want)
		}
	}
	rids, err := st.Search(ctx, []byte("durable payload"), SearchVerified)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(contents) {
		t.Fatalf("search after local recovery found %d of %d records", len(rids), len(contents))
	}

	health := c.ClusterHealth()
	if d := health.Nodes[victim].Durability; d != "recovered" {
		t.Fatalf("node %d durability = %q, want recovered", victim, d)
	}
	if health.JournalLen == 0 {
		t.Fatal("health journal accounting missing: no repair records")
	}
}

// flipJournalBit flips one bit inside the first frame's checksum field
// of node's journal (byte 13: past the 8-byte magic, inside the CRC at
// offset 12..15): a complete frame that no longer verifies — corruption,
// not a torn tail. It returns the journal path.
func flipJournalBit(t *testing.T, dir string, node int) string {
	t.Helper()
	walPath := filepath.Join(dir, fmt.Sprintf("node-%d", node), "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[13] ^= 0x20
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return walPath
}

// TestSelfHealingAlarmsOnCorruptJournal flips one bit in a live node's
// on-disk journal and then kills the node. The revive must detect the
// corruption and refuse to start the node — never replay past it, never
// bring it up empty — and the supervisor raises a sticky alarm naming
// it. The journal stays byte-identical, searches report the node
// missing, and reopening the cluster over the directory refuses too.
func TestSelfHealingAlarmsOnCorruptJournal(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	hc := newHealClock()
	c := NewMemoryCluster(4, append([]ClusterOption{WithDataDir(dir)}, hc.selfHealing()...)...)
	defer c.Close()
	st, err := Open(c, KeyFromPassphrase("durability"), durableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	heal := c.SelfHealing()
	for i := 1; i <= 16; i++ {
		if err := st.Insert(ctx, uint64(i), []byte(fmt.Sprintf("durable payload record %02d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	victim := victimNode(t, dir, 4)
	walPath := flipJournalBit(t, dir, victim)
	flipped, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	hc.awaitPhase(t, heal, victim, sdds.RepairAlarm)
	if err := heal.AwaitHealthy(ctx); !errors.Is(err, sdds.ErrNodeStateLost) {
		t.Fatalf("AwaitHealthy with a corrupt journal = %v, want ErrNodeStateLost", err)
	}
	if a := heal.Alarm(); !strings.Contains(a, fmt.Sprintf("node %d", victim)) || !strings.Contains(a, "corrupt") {
		t.Fatalf("Alarm = %q, want it to name node %d and the corruption", a, victim)
	}
	if err := c.ReviveNode(victim); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("ReviveNode over a corrupt journal = %v, want wal.ErrCorrupt", err)
	}
	_, err = st.Search(ctx, []byte("durable payload"), SearchFast)
	var ie *IncompleteError
	if !errors.As(err, &ie) || len(ie.Failed) != 1 || int(ie.Failed[0].Node) != victim {
		t.Fatalf("Search with the corrupt node down = %v, want an IncompleteError naming node %d", err, victim)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, flipped) {
		t.Fatalf("revive attempts changed the corrupt journal (err %v)", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A cold start over the same directory refuses as loudly.
	if _, err := StartLocalTCPCluster(4, WithDataDir(dir)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("StartLocalTCPCluster over a corrupt journal = %v, want wal.ErrCorrupt", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), walPath[:len(walPath)-len("/wal.log")]) {
				t.Fatalf("NewMemoryCluster over a corrupt journal: recover() = %v, want a panic naming the node dir", r)
			}
		}()
		NewMemoryCluster(4, WithDataDir(dir))
	}()
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, flipped) {
		t.Fatalf("cold starts changed the corrupt journal (err %v)", err)
	}
}
