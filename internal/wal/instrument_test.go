package wal

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestWALMetricInvariants exercises the journal/checkpoint/recover
// lifecycle and checks the durability counters against group commit's
// conservation law: every appended frame is retired in exactly one
// group, a group flush costs one fsync however many frames it carries,
// checkpoints are counted once, and a replay accounts for exactly the
// entries still in the journal.
func TestWALMetricInvariants(t *testing.T) {
	fsys := NewMemFS()
	st, err := Open(fsys, "node0", Options{CheckpointBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg) // after Open: the header sync is not in these counts

	journal := func(n int, op uint8, tag string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := st.Journal(op, []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN := func(n int) (last uint64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if last, err = st.Append(3, []byte(fmt.Sprintf("batch-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	journal(25, 1, "op")                  // 25 groups of one, 25 fsyncs
	last := appendN(4)                    // a batch: four frames ...
	if err := st.Sync(last); err != nil { // ... one group, one fsync
		t.Fatal(err)
	}
	appendN(2) // still pending when the checkpoint covers them: a group, no journal fsync
	if err := st.Checkpoint([]byte("image-at-31")); err != nil {
		t.Fatal(err)
	}
	journal(5, 2, "tail") // 5 groups, 5 fsyncs
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	const appends, flushes, checkpoints = 25 + 4 + 2 + 5, 25 + 1 + 5, 1
	if got := reg.CounterValue("wal_appends_total"); got != appends {
		t.Errorf("wal_appends_total = %d, want %d", got, appends)
	}
	if got := reg.CounterValue("wal_checkpoints_total"); got != checkpoints {
		t.Errorf("wal_checkpoints_total = %d, want %d", got, checkpoints)
	}
	groups := reg.HistogramSnapshot("wal_group_size")
	if groups.Sum != appends {
		t.Errorf("Σ wal_group_size = %d, want wal_appends_total = %d", groups.Sum, appends)
	}
	if groups.Count != flushes+checkpoints || groups.Max != 4 {
		t.Errorf("wal_group_size: %d groups, largest %d; want %d groups, largest 4",
			groups.Count, groups.Max, flushes+checkpoints)
	}
	// One fsync per group flush plus two per checkpoint — here exactly,
	// and never more than one per append plus the checkpoints' (no
	// header sync was counted: Instrument came after Open).
	fsyncs := reg.CounterValue("wal_fsyncs_total")
	if fsyncs != flushes+2*checkpoints {
		t.Errorf("wal_fsyncs_total = %d, want %d", fsyncs, flushes+2*checkpoints)
	}
	if fsyncs > appends+2*checkpoints {
		t.Errorf("wal_fsyncs_total = %d exceeds appends + 2·checkpoints = %d", fsyncs, appends+2*checkpoints)
	}
	for _, h := range []string{"wal_sync_wait_ns", "wal_fsync_ns"} {
		if snap := reg.HistogramSnapshot(h); snap.Count != flushes {
			t.Errorf("%s count = %d, want %d", h, snap.Count, flushes)
		}
	}
	if snap := reg.HistogramSnapshot("wal_checkpoint_ns"); snap.Count != 1 {
		t.Errorf("wal_checkpoint_ns count = %d, want 1", snap.Count)
	}

	// Reopen: the replay must account for exactly the 5 post-checkpoint
	// entries.
	st2, err := Open(fsys, "node0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	st2.Instrument(reg2)
	var replayed int
	outcome, err := st2.Recover(
		func(image []byte) error { return nil },
		func(op uint8, payload []byte) error { replayed++; return nil },
	)
	if err != nil || outcome != OutcomeRecovered {
		t.Fatalf("Recover = %v, %v; want OutcomeRecovered", outcome, err)
	}
	if replayed != 5 {
		t.Fatalf("replayed %d entries, want 5", replayed)
	}
	if got := reg2.CounterValue("wal_replays_total"); got != 1 {
		t.Errorf("wal_replays_total = %d, want 1", got)
	}
	if got := reg2.CounterValue("wal_replay_entries_total"); got != 5 {
		t.Errorf("wal_replay_entries_total = %d, want 5", got)
	}
	st2.Close()
}

// TestWALMetricCorruption checks that a corrupt recovery is counted.
func TestWALMetricCorruption(t *testing.T) {
	fsys := NewMemFS()
	st, err := Open(fsys, "n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip a bit inside the completed journal frame so the CRC check
	// fails as corruption, not a torn tail.
	size, err := fsys.Size("n/" + logName)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.FlipBit("n/"+logName, size-2, 0); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(fsys, "n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2.Instrument(reg)
	outcome, err := st2.Recover(nil, nil)
	if outcome != OutcomeCorrupt || err == nil {
		t.Fatalf("Recover = %v, %v; want OutcomeCorrupt", outcome, err)
	}
	if got := reg.CounterValue("wal_corruptions_total"); got != 1 {
		t.Errorf("wal_corruptions_total = %d, want 1", got)
	}
	st2.Close()
}
