package sdds

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/lhstar"
	"repro/internal/wal"
)

// The coordinator-side migration intent journal (DESIGN.md §14): every
// split/merge journals an intent BEFORE the first RPC and a durable
// outcome AFTER the last one, so a restarted coordinator knows exactly
// which migrations may be half-done on the nodes and can roll them
// forward or abort them instead of silently forgetting them. The log
// doubles as the coordinator's LH* state journal: folding the committed
// intents reproduces the file state a restarted coordinator lost with
// its memory.

// Exported migration kinds (numerically identical to the wire kinds).
const (
	// MigrateSplit moves the upper half of a splitting bucket to its new
	// image bucket.
	MigrateSplit = migrateSplit
	// MigrateMerge moves a closing bucket's records back to its
	// surviving partner.
	MigrateMerge = migrateMerge
)

// MigrationOutcome is the durable verdict of a finished migration.
type MigrationOutcome uint8

const (
	// MigrationCommitted: the target keeps the records; the source
	// dropped them.
	MigrationCommitted MigrationOutcome = MigrationOutcome(migOutcomeCommitted)
	// MigrationAborted: the source keeps the records; the target
	// discarded anything it absorbed.
	MigrationAborted MigrationOutcome = MigrationOutcome(migOutcomeAborted)
)

func (o MigrationOutcome) String() string {
	switch o {
	case MigrationCommitted:
		return "committed"
	case MigrationAborted:
		return "aborted"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// MigrationIntent is one journaled bucket move: the addressing the
// coordinator computed plus the file state it computed it from.
type MigrationIntent struct {
	MID       uint64
	Kind      uint8 // MigrateSplit or MigrateMerge
	File      FileID
	From      uint64 // bucket records leave
	To        uint64 // bucket records arrive at
	Level     uint8  // expected level of the From bucket
	PrevState lhstar.State
}

// header is the intent as the migration ops carry it to the nodes (and
// as the durable log journals it).
func (i MigrationIntent) header() migrateHeader {
	return migrateHeader{mid: i.MID, kind: i.Kind, file: i.File, from: i.From, to: i.To, level: i.Level}
}

// resultingState is the coordinator file state after the intent
// commits.
func resultingState(intent MigrationIntent) lhstar.State {
	st := intent.PrevState
	switch intent.Kind {
	case MigrateSplit:
		st.AdvanceSplit()
	case MigrateMerge:
		st.RetreatSplit()
	}
	return st
}

// MigrationRecord pairs an intent with its outcome; Done is false while
// the migration is in flight.
type MigrationRecord struct {
	Intent  MigrationIntent
	Done    bool
	Outcome MigrationOutcome
}

// MigrationLog journals the coordinator's migration intents and
// outcomes. Implementations must persist Begin before returning (the
// intent is what a restarted coordinator resumes from) and must assign
// strictly increasing migration IDs.
type MigrationLog interface {
	// Begin journals a new intent and returns its assigned migration ID.
	Begin(intent MigrationIntent) (uint64, error)
	// Finish durably records the outcome of an in-flight migration.
	Finish(mid uint64, outcome MigrationOutcome) error
	// Records returns a snapshot of the ledger in migration-ID order.
	Records() []MigrationRecord
	// InFlight returns how many migrations have begun and not finished.
	InFlight() int
	// Close releases any underlying file handle.
	Close() error
}

// ledger is what both MigrationLog implementations are: the records,
// and the rule that a change is handed to persist BEFORE the ledger shows
// it — an intent or outcome the log failed to make durable must never
// be resumed or reported. Migration IDs are dense from 1, so recs[i]
// holds migration i+1.
type ledger struct {
	mu      sync.Mutex
	recs    []MigrationRecord
	open    int // records not yet Done
	persist func(typ uint8, body []byte) error
}

// discard is the persist of a ledger with nowhere to write: the
// in-memory log, and the durable log while it replays what is on disk.
func discard(uint8, []byte) error { return nil }

// Record types handed to persist (the wal op byte of the durable log).
// An intent's body is its migrateHeader followed by PrevState (u8 I,
// u64 N); a done body is u64 MID, u8 outcome.
const (
	migRecIntent uint8 = 1
	migRecDone   uint8 = 2
)

// Begin implements MigrationLog.
func (l *ledger) Begin(intent MigrationIntent) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	intent.MID = uint64(len(l.recs)) + 1
	w := &writer{}
	intent.header().encodeTo(w)
	w.u8(uint8(intent.PrevState.I))
	w.u64(intent.PrevState.N)
	if err := l.persist(migRecIntent, w.b); err != nil {
		return 0, fmt.Errorf("sdds: migration log: %w", err)
	}
	l.recs = append(l.recs, MigrationRecord{Intent: intent})
	l.open++
	return intent.MID, nil
}

// Finish implements MigrationLog.
func (l *ledger) Finish(mid uint64, outcome MigrationOutcome) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mid == 0 || mid > uint64(len(l.recs)) {
		return fmt.Errorf("sdds: migration log has no intent %d", mid)
	}
	rec := &l.recs[mid-1]
	if rec.Done {
		if rec.Outcome != outcome {
			return fmt.Errorf("sdds: migration %d already finished as %v, refusing %v", mid, rec.Outcome, outcome)
		}
		return nil // idempotent re-finish
	}
	w := &writer{}
	w.u64(mid)
	w.u8(uint8(outcome))
	if err := l.persist(migRecDone, w.b); err != nil {
		return fmt.Errorf("sdds: migration log: %w", err)
	}
	rec.Done, rec.Outcome = true, outcome
	l.open--
	return nil
}

// Records implements MigrationLog.
func (l *ledger) Records() []MigrationRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]MigrationRecord(nil), l.recs...)
}

// InFlight implements MigrationLog.
func (l *ledger) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.open
}

// MemMigrationLog is the in-memory MigrationLog — the default for
// ephemeral clusters: resume works within the process (lost responses,
// aborted drives) but not across a coordinator restart.
type MemMigrationLog struct{ ledger }

// NewMemMigrationLog creates an empty in-memory migration log.
func NewMemMigrationLog() *MemMigrationLog {
	return &MemMigrationLog{ledger{persist: discard}}
}

// Close implements MigrationLog.
func (l *MemMigrationLog) Close() error { return nil }

// FileMigrationLog is the durable MigrationLog: a ledger that persists
// into a wal.Store, one record written and fsynced per Begin and per
// Finish. It inherits the store's recovery rules: a torn tail (the
// append in flight at a crash, which no caller saw acknowledged) is cut
// on open, while a checksum failure on a complete record or a sequence
// gap fails the open — a coordinator that forgot a committed split would
// compute every later address from the wrong file state, so it must
// stop instead.
type FileMigrationLog struct {
	ledger
	st *wal.Store
}

// legacyMigrationLog is the coordinator journal of earlier versions: a
// private record file beside which a fresh wal.log would silently start
// the ledger over.
const legacyMigrationLog = "migrations.log"

// OpenFileMigrationLog opens (creating if absent) the migration log in
// dir and replays its records into memory.
func OpenFileMigrationLog(fsys wal.FS, dir string) (*FileMigrationLog, error) {
	legacy := filepath.Join(dir, legacyMigrationLog)
	if _, err := fsys.ReadFile(legacy); err == nil {
		return nil, fmt.Errorf("sdds: migration log: %s is a journal in the retired pre-wal format, which this version cannot replay; refusing to start an empty ledger beside it", legacy)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("sdds: migration log: %w", err)
	}
	st, err := wal.Open(fsys, dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("sdds: migration log: %w", err)
	}
	l := &FileMigrationLog{ledger: ledger{persist: discard}, st: st}
	// The log never checkpoints, so an image on disk is not its own.
	noImage := func([]byte) error { return fmt.Errorf("sdds: migration log: unexpected checkpoint in %s", dir) }
	if _, err := st.Recover(noImage, l.replay); err != nil {
		st.Close() //nolint:errcheck // nothing was appended; the recovery error is the one to report
		return nil, fmt.Errorf("sdds: migration log in %s: %w", dir, err)
	}
	l.persist = st.Journal
	return l, nil
}

// replay re-applies one journaled record through Begin or Finish; the
// ledger still discards, the record being on disk already.
func (l *FileMigrationLog) replay(typ uint8, body []byte) error {
	r := &reader{b: body}
	switch typ {
	case migRecIntent:
		var hdr migrateHeader
		hdr.decodeFrom(r)
		intent := MigrationIntent{
			Kind: hdr.kind, File: hdr.file, From: hdr.from, To: hdr.to, Level: hdr.level,
			PrevState: lhstar.State{I: uint(r.u8()), N: r.u64()},
		}
		if err := r.done(); err != nil {
			return err
		}
		mid, err := l.Begin(intent)
		if err == nil && mid != hdr.mid {
			err = fmt.Errorf("sdds: migration log: intent %d journaled where %d belongs", hdr.mid, mid)
		}
		return err
	case migRecDone:
		mid, outcome := r.u64(), MigrationOutcome(r.u8())
		if err := r.done(); err != nil {
			return err
		}
		return l.Finish(mid, outcome)
	default:
		return fmt.Errorf("sdds: migration log: unknown record type %d", typ)
	}
}

// Close implements MigrationLog.
func (l *FileMigrationLog) Close() error { return l.st.Close() }

// MigrationStats summarizes the migration ledger for health surfaces.
// Started, Committed and Aborted are durable log counts, so the
// invariant Started == Committed + Aborted + InFlight holds across
// coordinator restarts; Resumed counts resume drives in this process.
type MigrationStats struct {
	Started   uint64
	Committed uint64
	Aborted   uint64
	Resumed   uint64
	InFlight  int
}

func migStatsOf(recs []MigrationRecord) MigrationStats {
	var s MigrationStats
	for _, r := range recs {
		s.Started++
		switch {
		case !r.Done:
			s.InFlight++
		case r.Outcome == MigrationCommitted:
			s.Committed++
		default:
			s.Aborted++
		}
	}
	return s
}
