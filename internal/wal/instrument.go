package wal

import (
	"repro/internal/obs"
)

// walMetrics counts the store's durability work. Group commit's
// conservation law, asserted by the metrics-invariant suite on a store
// that was closed gracefully (or is otherwise quiescent):
//
//	Σ wal_group_size = wal_appends_total
//	wal_fsyncs_total ≤ wal_appends_total + 2·wal_checkpoints_total + header syncs
//
// Every appended frame is retired in exactly one group — a group flush
// (one Write, one fsync), a checkpoint that covered it while pending, or
// Close's final flush — and a flush never carries zero frames, so there
// are at most as many journal fsyncs as appends; each checkpoint adds
// two, each freshly stamped journal header (Open on an empty directory)
// one. One caller at a time meets the bound with equality;
// concurrent callers (or one caller appending a batch before it syncs)
// share flushes and push fsyncs below appends — the point of the
// exercise. Replay counters let recovery tests assert that every entry
// journaled before a crash was either replayed or checkpointed away.
type walMetrics struct {
	on bool // gates the time.Now pairs on the sync path

	appends       *obs.Counter
	fsyncs        *obs.Counter
	checkpoints   *obs.Counter
	replays       *obs.Counter // Recover calls that found state
	replayEntries *obs.Counter // journal entries re-applied
	corruptions   *obs.Counter // Recover calls reporting OutcomeCorrupt

	groupSize    *obs.Histogram // frames retired per group
	syncWaitNS   *obs.Histogram // time a Sync caller was blocked, flush + queueing
	fsyncNS      *obs.Histogram
	checkpointNS *obs.Histogram
}

// Instrument publishes the store's counters into reg. Call after Open
// and before the store carries traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := walMetrics{
		on:            true,
		appends:       reg.Counter("wal_appends_total"),
		fsyncs:        reg.Counter("wal_fsyncs_total"),
		checkpoints:   reg.Counter("wal_checkpoints_total"),
		replays:       reg.Counter("wal_replays_total"),
		replayEntries: reg.Counter("wal_replay_entries_total"),
		corruptions:   reg.Counter("wal_corruptions_total"),
		groupSize:     reg.Histogram("wal_group_size"),
		syncWaitNS:    reg.Histogram("wal_sync_wait_ns"),
		fsyncNS:       reg.Histogram("wal_fsync_ns"),
		checkpointNS:  reg.Histogram("wal_checkpoint_ns"),
	}
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}
