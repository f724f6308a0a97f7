package sdds

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
)

func testIntent(kind uint8, prev lhstar.State) MigrationIntent {
	intent := MigrationIntent{Kind: kind, File: FileRecords, PrevState: prev}
	if kind == MigrateSplit {
		intent.From, intent.To = prev.NextSplit()
		intent.Level = uint8(prev.BucketLevel(intent.From))
	} else {
		st := prev
		st.RetreatSplit()
		intent.From = st.N + 1<<st.I
		intent.To = st.N
		intent.Level = uint8(st.I + 1)
	}
	return intent
}

func TestFileMigrationLogRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	lg, err := OpenFileMigrationLog(fs, "coord")
	if err != nil {
		t.Fatal(err)
	}

	var st lhstar.State
	first := testIntent(MigrateSplit, st)
	mid1, err := lg.Begin(first)
	if err != nil {
		t.Fatal(err)
	}
	st.AdvanceSplit()
	second := testIntent(MigrateSplit, st)
	mid2, err := lg.Begin(second)
	if err != nil {
		t.Fatal(err)
	}
	if mid1 != 1 || mid2 != 2 {
		t.Fatalf("MIDs = %d, %d, want 1, 2", mid1, mid2)
	}
	if err := lg.Finish(mid1, MigrationCommitted); err != nil {
		t.Fatal(err)
	}
	if err := lg.Finish(mid2, MigrationAborted); err != nil {
		t.Fatal(err)
	}
	third := testIntent(MigrateMerge, st)
	if _, err := lg.Begin(third); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileMigrationLog(fs, "coord")
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	recs := re.Records()
	if len(recs) != 3 {
		t.Fatalf("reopened log holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Intent.MID != uint64(i+1) {
			t.Fatalf("record %d holds migration %d: Records is not in migration-ID order", i, r.Intent.MID)
		}
	}
	if !recs[0].Done || recs[0].Outcome != MigrationCommitted {
		t.Fatalf("record 1 = %+v, want committed", recs[0])
	}
	if !recs[1].Done || recs[1].Outcome != MigrationAborted {
		t.Fatalf("record 2 = %+v, want aborted", recs[1])
	}
	if recs[2].Done {
		t.Fatalf("record 3 = %+v, want in-flight", recs[2])
	}
	first.MID = mid1 // Begin assigned the ID
	if recs[0].Intent != first || recs[1].Intent.MID != 2 || recs[2].Intent.File != FileRecords {
		t.Fatalf("intents did not survive the round trip: %+v", recs)
	}
	if got := migStatsOf(recs); got.Started != 3 || got.Committed != 1 || got.Aborted != 1 || got.InFlight != 1 {
		t.Fatalf("stats after reopen = %+v", got)
	}
	// MID allocation continues past everything replayed.
	if mid, err := re.Begin(testIntent(MigrateSplit, st)); err != nil || mid != 4 {
		t.Fatalf("Begin after reopen = %d, %v, want 4", mid, err)
	}
}

// twoIntentLog journals two intents into a fresh log on fs, closes it,
// and returns the journal file's path and bytes.
func twoIntentLog(t *testing.T, fs *wal.MemFS) (path string, data []byte) {
	t.Helper()
	lg, err := OpenFileMigrationLog(fs, "coord")
	if err != nil {
		t.Fatal(err)
	}
	var st lhstar.State
	for i := 0; i < 2; i++ {
		if _, err := lg.Begin(testIntent(MigrateSplit, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join("coord", "wal.log")
	if data, err = fs.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestFileMigrationLogTruncatesTornTail(t *testing.T) {
	fs := wal.NewMemFS()
	path, data := twoIntentLog(t, fs)
	// Tear the last record down the middle — the torn-append crash.
	if err := fs.Truncate(path, int64(len(data)-5)); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileMigrationLog(fs, "coord")
	if err != nil {
		t.Fatalf("reopening torn log: %v", err)
	}
	if recs := re.Records(); len(recs) != 1 || recs[0].Intent.MID != 1 {
		t.Fatalf("torn log replayed %+v, want only record 1", recs)
	}
	// Appends resume cleanly on the truncated file.
	var st lhstar.State
	if mid, err := re.Begin(testIntent(MigrateSplit, st)); err != nil || mid != 2 {
		t.Fatalf("Begin after torn-tail truncation = %d, %v", mid, err)
	}
	re.Close()
	if again, err := OpenFileMigrationLog(fs, "coord"); err != nil {
		t.Fatalf("third open: %v", err)
	} else if recs := again.Records(); len(recs) != 2 {
		t.Fatalf("log after repair holds %d records, want 2", len(recs))
	}
}

// A bit flipped inside a complete — acknowledged — record is not a crash
// artifact. Dropping the record would forget a journaled split and
// address every later key from the wrong file state, so the open must
// fail and leave the evidence alone.
func TestFileMigrationLogRejectsCorruptBody(t *testing.T) {
	fs := wal.NewMemFS()
	path, data := twoIntentLog(t, fs)
	if err := fs.FlipBit(path, len(data)-3, 0); err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 1
	if _, err := OpenFileMigrationLog(fs, "coord"); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("opening bit-flipped log = %v, want wal.ErrCorrupt", err)
	}
	if after, err := fs.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("failed open changed the journal (%v): %d bytes, was %d", err, len(after), len(data))
	}
}

// A data dir written before the log moved onto wal.Store holds its
// ledger in migrations.log; opening a fresh wal.log beside it would
// restart the coordinator at one bucket per file.
func TestFileMigrationLogRefusesLegacyFile(t *testing.T) {
	fs := wal.NewMemFS()
	legacy := filepath.Join("coord", "migrations.log")
	f, err := fs.OpenAppend(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ESDDSMIG1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileMigrationLog(fs, "coord"); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("open beside a legacy log = %v, want a refusal naming %s", err, legacy)
	}
	if _, err := fs.ReadFile(filepath.Join("coord", "wal.log")); !os.IsNotExist(err) {
		t.Fatalf("refused open still created a journal (ReadFile: %v)", err)
	}
}

// countMigrationSends makes the harness's hook count every opMigrate*
// message the coordinator sends.
func countMigrationSends(h *migHarness) *int {
	var n int
	h.hook.setBefore(func(_ transport.NodeID, op uint8) error {
		if op >= opMigratePrepare && op <= opMigrateAbort {
			n++
		}
		return nil
	})
	return &n
}

// TestFileMigrationLogBeginFailureLeavesNoPhantom: an intent whose
// journal write failed was never recorded, so nothing may resume it —
// a phantom in the ledger would freeze a bucket for a migration the
// durable log knows nothing about.
func TestFileMigrationLogBeginFailureLeavesNoPhantom(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	keys := h.load(FileRecords, 24)
	h.c.SetMaxLoad(FileRecords, 4)
	sends := countMigrationSends(h)

	h.logFS.SetCrash(1, wal.CrashDrop) // the intent's write
	if err := h.c.coord.split(ctx, FileRecords); err == nil {
		t.Fatal("split reported success though its intent was never journaled")
	}
	if recs := h.lg.Records(); len(recs) != 0 {
		t.Fatalf("failed Begin left %+v in the ledger", recs)
	}
	if resumed, err := h.c.coord.ResumeMigrations(ctx); resumed != 0 || err != nil {
		t.Fatalf("ResumeMigrations = %d, %v, want nothing to resume", resumed, err)
	}
	// The next split on the file resumes the file first; its own
	// Begin fails again (the journal is dead until the coordinator
	// restarts), before any node hears of it.
	if err := h.c.coord.split(ctx, FileRecords); err == nil {
		t.Fatal("split over a dead journal reported success")
	}
	if *sends != 0 {
		t.Fatalf("%d migration messages were sent for intents that were never journaled", *sends)
	}
	h.wantStats(0, 0, 0, 0)

	// A restarted coordinator finds an empty ledger and splits normally.
	h.logFS.Restart()
	if inFlight := h.newCoordinator(); inFlight != 0 {
		t.Fatalf("restarted coordinator found %d in-flight migrations", inFlight)
	}
	h.checkAll(FileRecords, keys)
}

// TestCoordinatorJournalCrashSweep cuts power to the coordinator's disk
// at every write and fsync of one split's journal records, in every tear
// mode, and restarts the coordinator over what survived: the log must
// open, hold every record the dead coordinator saw acknowledged, and
// resume to a state that lost and duplicated nothing.
func TestCoordinatorJournalCrashSweep(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []wal.CrashMode{wal.CrashDrop, wal.CrashKeep, wal.CrashTorn} {
		t.Run(mode.String(), func(t *testing.T) {
			for point := 1; ; point++ {
				h := newMigHarness(t, 2)
				keys := h.load(FileRecords, 24)
				h.c.SetMaxLoad(FileRecords, 4)
				h.logFS.SetCrash(point, mode)
				err := h.c.coord.split(ctx, FileRecords)
				if !h.logFS.Crashed() {
					if err != nil {
						t.Fatalf("point %d: split failed without a crash: %v", point, err)
					}
					if point != 5 {
						t.Fatalf("a split journaled %d fs ops, want 4 (write+fsync per Begin and Finish)", point-1)
					}
					return
				}
				if err == nil {
					t.Fatalf("point %d: split reported success over a dead journal", point)
				}
				acked := h.lg.Records()
				h.logFS.Restart()
				h.newCoordinator()
				recs := h.lg.Records()
				if len(recs) < len(acked) {
					t.Fatalf("point %d: reopened ledger %+v lost acknowledged records %+v", point, recs, acked)
				}
				for i, r := range acked {
					// Done may only move forward: CrashKeep can persist the
					// outcome whose fsync the coordinator never saw return.
					if recs[i].Intent != r.Intent || (r.Done && recs[i] != r) {
						t.Fatalf("point %d: record %d reopened as %+v, was acknowledged as %+v", point, i, recs[i], r)
					}
				}
				if _, err := h.c.coord.ResumeMigrations(ctx); err != nil {
					t.Fatalf("point %d: resuming after coordinator crash: %v", point, err)
				}
				h.wantInvariant()
				s := h.c.coord.MigrationStats()
				if s.InFlight != 0 {
					t.Fatalf("point %d: migration still in flight after resume: %+v", point, s)
				}
				// The file grew exactly when the ledger says the split
				// committed (an intent lost with the crash never started).
				if got := h.c.coord.File(FileRecords).State.Buckets(); got != 1+s.Committed {
					t.Fatalf("point %d: %d buckets with ledger %+v", point, got, s)
				}
				h.checkAll(FileRecords, keys)

				// Reopening changes nothing: same records, same next MID.
				before := h.lg.Records()
				h.newCoordinator()
				if after := h.lg.Records(); !reflect.DeepEqual(after, before) {
					t.Fatalf("point %d: ledger changed across a clean reopen: %+v, was %+v", point, after, before)
				}
				next, err := h.lg.Begin(testIntent(MigrateSplit, h.c.coord.File(FileRecords).State))
				if want := uint64(len(before)) + 1; err != nil || next != want {
					t.Fatalf("point %d: next MID after reopen = %d, %v, want %d", point, next, err, want)
				}
			}
		})
	}
}

func TestAttachMigrationLogRejectsLateAttach(t *testing.T) {
	ctx := context.Background()
	h := newMigHarness(t, 2)
	h.load(FileRecords, 24)
	h.c.SetMaxLoad(FileRecords, 4)
	if err := h.c.coord.split(ctx, FileRecords); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.AttachMigrationLog(NewMemMigrationLog()); err == nil {
		t.Fatal("attach after a split was accepted; the in-memory ledger would be silently discarded")
	}
}

func TestMemMigrationLogFinishValidation(t *testing.T) {
	lg := NewMemMigrationLog()
	if err := lg.Finish(7, MigrationCommitted); err == nil {
		t.Fatal("finishing an unknown MID was accepted")
	}
	var st lhstar.State
	mid, err := lg.Begin(testIntent(MigrateSplit, st))
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Finish(mid, MigrationCommitted); err != nil {
		t.Fatal(err)
	}
	if err := lg.Finish(mid, MigrationAborted); err == nil {
		t.Fatal("conflicting double finish was accepted")
	}
}

// TestResultingState pins the state fold used both by coordinator
// restart and by AttachMigrationLog: committed split intents advance
// the split pointer, committed merges retreat it.
func TestResultingState(t *testing.T) {
	var st lhstar.State
	split := testIntent(MigrateSplit, st)
	got := resultingState(split)
	want := st
	want.AdvanceSplit()
	if got != want {
		t.Fatalf("resultingState(split) = %+v, want %+v", got, want)
	}
	merge := testIntent(MigrateMerge, want)
	if got := resultingState(merge); got != st {
		t.Fatalf("resultingState(merge) = %+v, want %+v", got, st)
	}
}
