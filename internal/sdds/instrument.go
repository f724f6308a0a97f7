package sdds

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// This file wires the SDDS layer into the obs registry: node-side
// per-opcode latency and search-path counters, client-side operation
// counters, and supervisor repair-phase counters. Instrument methods
// must run before the component carries traffic; all instruments are
// nil-safe no-ops until then.

// opNames labels the per-opcode latency histograms.
var opNames = [...]string{
	opPut:            "put",
	opGet:            "get",
	opDelete:         "delete",
	opSearch:         "search",
	opStats:          "stats",
	opWordSearch:     "word_search",
	opPutBatch:       "put_batch",
	opPing:           "ping",
	opRecoveryState:  "recovery_state",
	opMigratePrepare: "migrate_prepare",
	opMigrateAbsorb:  "migrate_absorb",
	opMigrateCommit:  "migrate_commit",
	opMigrateAbort:   "migrate_abort",
}

// OpName returns the protocol name of an op code ("" for unknown ops).
func OpName(op uint8) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return ""
}

// nodeMetrics counts a node's server-side work. Search invariants the
// metrics-invariant suite asserts:
//
//	posting_searches_total + linear_searches_total == searches_total
//	posting_verified_total <= posting_candidates_total
//	  (the difference is the index's false-positive verify overhead)
type nodeMetrics struct {
	on bool // gates the time.Now pair on the handler hot path

	ops      *obs.Counter
	opErrors *obs.Counter
	opNS     [len(opNames)]*obs.Histogram

	forwards *obs.Counter // LH* server-side forwards issued

	searches          *obs.Counter
	postingSearches   *obs.Counter
	linearSearches    *obs.Counter
	postingCandidates *obs.Counter // candidate offsets probed
	postingVerified   *obs.Counter // candidates that survived MatchAt
	searchHits        *obs.Counter // raw hits reported (both paths)

	indexTombstones  *obs.Counter // postings tombstoned by deletes/overwrites
	indexCompactions *obs.Counter // posting-list compaction epochs
}

// Instrument publishes the node's counters into reg. Call before the
// node serves traffic.
func (n *Node) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := nodeMetrics{
		on:                true,
		ops:               reg.Counter("node_ops_total"),
		opErrors:          reg.Counter("node_op_errors_total"),
		forwards:          reg.Counter("node_forwards_total"),
		searches:          reg.Counter("node_searches_total"),
		postingSearches:   reg.Counter("node_posting_searches_total"),
		linearSearches:    reg.Counter("node_linear_searches_total"),
		postingCandidates: reg.Counter("node_posting_candidates_total"),
		postingVerified:   reg.Counter("node_posting_verified_total"),
		searchHits:        reg.Counter("node_search_hits_total"),
		indexTombstones:   reg.Counter("node_index_tombstones_total"),
		indexCompactions:  reg.Counter("node_index_compactions_total"),
	}
	for op, name := range opNames {
		if name != "" {
			m.opNS[op] = reg.Histogram("node_op_" + name + "_ns")
		}
	}
	n.met = m
}

// observeOp records one handled request's latency and outcome.
func (m *nodeMetrics) observeOp(op uint8, d time.Duration, err error) {
	m.ops.Inc()
	if err != nil {
		m.opErrors.Inc()
	}
	if int(op) < len(m.opNS) {
		m.opNS[op].Observe(d.Nanoseconds())
	}
}

// clusterMetrics counts the client side and, in the copy the client
// hands its Coordinator, splits, merges and the migration lifecycle.
// cluster_iams_total tracks image-adjustment messages — the client's
// view of how far its image lagged (each one was an extra hop the
// server chain took).
type clusterMetrics struct {
	puts         *obs.Counter
	gets         *obs.Counter
	deletes      *obs.Counter
	searches     *obs.Counter
	wordSearches *obs.Counter
	batches      *obs.Counter // write-round put_batch RPCs
	iams         *obs.Counter
	splits       *obs.Counter
	merges       *obs.Counter

	searchNS        *obs.Histogram
	failedSites     *obs.Counter // node results lost entirely
	searchesPartial *obs.Counter // searches and word searches that returned incomplete

	// Two-phase migration lifecycle (DESIGN.md §14). The durable ledger
	// invariant started == committed + aborted + in_flight is asserted by
	// the migration tests over these surfaces.
	migStarted   *obs.Counter
	migCommitted *obs.Counter
	migAborted   *obs.Counter
	migResumed   *obs.Counter
	migInFlight  *obs.Gauge
}

// Instrument publishes the cluster client's and its coordinator's
// counters into reg. Call before the cluster carries traffic.
func (c *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.met = clusterMetrics{
		puts:            reg.Counter("cluster_puts_total"),
		gets:            reg.Counter("cluster_gets_total"),
		deletes:         reg.Counter("cluster_deletes_total"),
		searches:        reg.Counter("cluster_searches_total"),
		wordSearches:    reg.Counter("cluster_word_searches_total"),
		batches:         reg.Counter("cluster_insert_batches_total"),
		iams:            reg.Counter("cluster_iams_total"),
		splits:          reg.Counter("cluster_splits_total"),
		merges:          reg.Counter("cluster_merges_total"),
		searchNS:        reg.Histogram("cluster_search_ns"),
		failedSites:     reg.Counter("cluster_failed_sites_total"),
		searchesPartial: reg.Counter("cluster_partial_searches_total"),
		migStarted:      reg.Counter("sdds_migrations_started_total"),
		migCommitted:    reg.Counter("sdds_migrations_committed_total"),
		migAborted:      reg.Counter("sdds_migrations_aborted_total"),
		migResumed:      reg.Counter("sdds_migrations_resumed_total"),
		migInFlight:     reg.Gauge("sdds_migrations_in_flight"),
	}
	c.coord.met = c.met
}

// supervisorMetrics counts repair-lifecycle phases. Every journaled
// record increments exactly one phase counter, so
//
//	sum(phase counters) == journal length + journal dropped
//
// holds at all times (both sides count every record ever journaled).
type supervisorMetrics struct {
	phases [repairPhaseCount]*obs.Counter
}

const repairPhaseCount = int(RepairLocalRecovery) + 1

// sanitizePhase turns a RepairPhase display name into a metric-name
// segment ("local-recovery" → "local_recovery").
func sanitizePhase(name string) string {
	return strings.ReplaceAll(name, "-", "_")
}

// Instrument publishes the supervisor's per-phase repair counters into
// reg. Call before Start.
func (s *Supervisor) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var m supervisorMetrics
	for p := 0; p < repairPhaseCount; p++ {
		m.phases[p] = reg.Counter("supervisor_phase_" + sanitizePhase(RepairPhase(p).String()) + "_total")
	}
	s.met = m
}
