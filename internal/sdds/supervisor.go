package sdds

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// ErrRepairBudgetExceeded reports more confirmed-down nodes than the
// guardian's parity budget k can restore — the supervisor alarms and
// stands down rather than risking a reconstruction from insufficient
// survivors.
var ErrRepairBudgetExceeded = errors.New("sdds: confirmed failures exceed the parity budget")

// SupervisorConfig tunes the repair supervisor.
type SupervisorConfig struct {
	// Debounce is how long a node must stay confirmed-down before repair
	// begins. Flaps shorter than this (a lifted partition, a restarted
	// process) exit cleanly without a restore. Default 100ms.
	Debounce time.Duration
	// PollInterval is the reconciliation tick — the backstop that
	// catches dropped detector events and fires due repairs. Default
	// Debounce/2 (min 1ms).
	PollInterval time.Duration
	// RepairBackoff is the pause between repair attempts against a node
	// whose restore keeps failing (e.g. its replacement is not up yet).
	// Default 250ms.
	RepairBackoff time.Duration
	// RepairTimeout bounds one repair pass. Default 30s.
	RepairTimeout time.Duration
	// SyncInterval, when nonzero, re-establishes the recovery point
	// automatically: while every node is healthy the supervisor runs
	// Guardian.Sync on this period, bounding what a parity restore
	// rolls back.
	SyncInterval time.Duration
	// JournalCap bounds the repair journal: once full, the oldest
	// records are dropped (and counted) rather than growing without
	// bound under a flapping node. Default 512.
	JournalCap int
}

func (c *SupervisorConfig) fillDefaults() {
	if c.Debounce <= 0 {
		c.Debounce = 100 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = c.Debounce / 2
		if c.PollInterval < time.Millisecond {
			c.PollInterval = time.Millisecond
		}
	}
	if c.RepairBackoff <= 0 {
		c.RepairBackoff = 250 * time.Millisecond
	}
	if c.RepairTimeout <= 0 {
		c.RepairTimeout = 30 * time.Second
	}
	if c.JournalCap <= 0 {
		c.JournalCap = 512
	}
}

// Reviver brings a replacement (or revived) node online under a dead
// node's ID before the guardian pushes the restored image — in a memory
// cluster it registers a fresh handler; in a real deployment it might
// start a spare daemon. A nil Reviver means replacements come up out of
// band (the supervisor just keeps retrying the restore until one
// answers).
type Reviver func(ctx context.Context, node transport.NodeID) error

// RepairPhase labels one step of a node's repair lifecycle.
type RepairPhase uint8

const (
	// RepairDetected: the detector confirmed the node down.
	RepairDetected RepairPhase = iota
	// RepairFlap: the node came back before the debounce elapsed; no
	// repair was needed (or attempted).
	RepairFlap
	// RepairStarted: revive + restore began.
	RepairStarted
	// RepairNothingToRestore: the guardian had never synced, so the node
	// restarts empty (Guardian.ErrNeverSynced semantics).
	RepairNothingToRestore
	// RepairCompleted: the node's image was restored successfully.
	RepairCompleted
	// RepairFailed: this attempt failed; it will be retried after
	// RepairBackoff.
	RepairFailed
	// RepairAlarm: confirmed failures exceed the parity budget; the
	// supervisor stands down until the operator intervenes.
	RepairAlarm
	// RepairLocalRecovery: the revived node replayed its own durable
	// journal — no parity reconstruction was needed, so the repair
	// consumed none of the k-failure budget's capacity.
	RepairLocalRecovery
	// RepairParityFallback: the node came back durable but its local
	// state was unusable (corrupt or empty journal) — detected, reported,
	// and repaired via Guardian.Recover instead.
	RepairParityFallback
)

// String implements fmt.Stringer.
func (p RepairPhase) String() string {
	switch p {
	case RepairDetected:
		return "detected"
	case RepairFlap:
		return "flap"
	case RepairStarted:
		return "started"
	case RepairNothingToRestore:
		return "nothing-to-restore"
	case RepairCompleted:
		return "completed"
	case RepairFailed:
		return "failed"
	case RepairAlarm:
		return "alarm"
	case RepairLocalRecovery:
		return "local-recovery"
	case RepairParityFallback:
		return "parity-fallback"
	default:
		return "unknown"
	}
}

// RepairRecord is one journal entry of the repair state machine. The
// journal is what makes automatic repair auditable: every detection,
// flap, attempt, completion, and alarm is recorded in order.
type RepairRecord struct {
	Seq    uint64
	Node   transport.NodeID
	Phase  RepairPhase
	At     time.Time
	Detail string
}

// downNode tracks one confirmed-down node through repair.
type downNode struct {
	since       time.Time
	attempted   bool // revive/restore was attempted: no silent flap exit anymore
	lastAttempt time.Time
}

// Supervisor closes the availability loop: it watches a Detector for
// confirmed node failures, debounces flaps, automatically drives
// Guardian recovery onto replacement nodes (within the k-failure
// budget, alarming beyond it), and journals every step. A node under
// repair is simply a failed node to searches (they return an
// IncompleteError naming it).
//
// Concurrency: all repair work runs on the supervisor's single loop
// goroutine; state reads (Down, Journal, Alarm) take the mutex.
// Restores are idempotent whole-image pushes (opNodeRestore replaces
// the node's entire inventory under the node's lock), so a repair that
// dies mid-flight — or a supervisor restarted over the same guardian —
// simply re-runs the restore with no torn state.
type Supervisor struct {
	det    *transport.Detector
	guard  *Guardian
	retry  *transport.Retry // optional: breakers to reset after repair
	revive Reviver
	cfg    SupervisorConfig

	mu             sync.Mutex
	down           map[transport.NodeID]*downNode
	alarm          string
	journal        []RepairRecord
	journalDropped uint64 // oldest records shed by the ring bound
	seq            uint64
	repairs        uint64 // completed repairs (monotonic)

	started bool
	stop    chan struct{}
	done    chan struct{}
	now     func() time.Time
	resume  MigrationResumer // optional: re-drive in-flight migrations post-repair

	met supervisorMetrics // set by Instrument before Start; nil-safe
}

// MigrationResumer rolls the coordinator's in-flight bucket migrations
// forward (or aborts them) — Cluster.ResumeMigrations. The supervisor
// invokes it after every completed repair once all nodes are up again:
// a migration interrupted by the very node failure that triggered the
// repair leaves frozen buckets behind, and resolving it promptly is
// part of returning the cluster to nominal.
type MigrationResumer func(ctx context.Context) (int, error)

// SetMigrationResumer installs (or, with nil, removes) the post-repair
// migration resumer. Call before Start.
func (s *Supervisor) SetMigrationResumer(r MigrationResumer) {
	s.mu.Lock()
	s.resume = r
	s.mu.Unlock()
}

// NewSupervisor wires a supervisor over a detector and guardian. retry
// may be nil (no breakers to reset); revive may be nil (replacements
// come up out of band).
func NewSupervisor(det *transport.Detector, guard *Guardian, retry *transport.Retry, revive Reviver, cfg SupervisorConfig) *Supervisor {
	cfg.fillDefaults()
	return &Supervisor{
		det:    det,
		guard:  guard,
		retry:  retry,
		revive: revive,
		cfg:    cfg,
		down:   make(map[transport.NodeID]*downNode),
		now:    time.Now,
	}
}

// Start launches the supervision loop.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	events := s.det.Subscribe(64)
	go s.loop(stop, done, events)
}

// Stop halts the supervision loop (any in-flight repair pass finishes
// first).
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

func (s *Supervisor) loop(stop, done chan struct{}, events <-chan transport.HealthEvent) {
	defer close(done)
	tick := time.NewTicker(s.cfg.PollInterval)
	defer tick.Stop()
	var syncC <-chan time.Time
	if s.cfg.SyncInterval > 0 {
		st := time.NewTicker(s.cfg.SyncInterval)
		defer st.Stop()
		syncC = st.C
	}
	for {
		select {
		case <-stop:
			return
		case <-events:
			s.Reconcile(context.Background())
		case <-tick.C:
			s.Reconcile(context.Background())
		case <-syncC:
			s.autoSync()
		}
	}
}

// autoSync re-establishes the recovery point while the cluster is
// healthy. Syncing around a down node would silently move its recovery
// point backwards, so any tracked failure skips the round.
func (s *Supervisor) autoSync() {
	s.mu.Lock()
	busy := len(s.down) > 0 || s.alarm != ""
	s.mu.Unlock()
	if busy {
		return
	}
	for _, nh := range s.det.Snapshot() {
		if nh.State != transport.NodeUp {
			return
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RepairTimeout)
	defer cancel()
	s.guard.Sync(ctx) //nolint:errcheck // transient; retried next interval
}

// Reconcile runs one supervision pass: fold the detector's current
// verdicts into the down-set, absorb flaps, check the failure budget,
// and fire any due repairs. The loop calls it on every event and tick;
// tests may call it directly for deterministic stepping.
func (s *Supervisor) Reconcile(ctx context.Context) {
	now := s.now()
	states := s.det.Snapshot()

	s.mu.Lock()
	for _, nh := range states {
		switch nh.State {
		case transport.NodeDown:
			if _, tracked := s.down[nh.Node]; !tracked {
				s.down[nh.Node] = &downNode{since: now}
				s.journalLocked(nh.Node, RepairDetected, nh.LastError)
			}
		case transport.NodeUp:
			if dn, tracked := s.down[nh.Node]; tracked && !dn.attempted {
				// Came back within its own state — a flap, nothing to
				// restore. (Once a repair was attempted the node may be
				// an empty replacement, so it must finish the restore.)
				delete(s.down, nh.Node)
				s.journalLocked(nh.Node, RepairFlap, fmt.Sprintf("down %v", now.Sub(dn.since).Round(time.Millisecond)))
			}
		}
	}

	// Failure budget: beyond k confirmed failures the MDS bound is gone;
	// alarm and stand down instead of attempting a doomed (or worse,
	// state-corrupting) reconstruction.
	if len(s.down) > s.guard.K() {
		if s.alarm == "" {
			s.alarm = fmt.Sprintf("%d nodes down exceeds parity budget k=%d: %v",
				len(s.down), s.guard.K(), sortedNodesLocked(s.down))
			for n := range s.down {
				s.journalLocked(n, RepairAlarm, s.alarm)
			}
		}
		s.mu.Unlock()
		return
	}
	if s.alarm != "" {
		s.alarm = "" // budget restored (operator intervened); resume
	}

	var ripe []transport.NodeID
	for n, dn := range s.down {
		if now.Sub(dn.since) < s.cfg.Debounce {
			continue
		}
		if dn.attempted && now.Sub(dn.lastAttempt) < s.cfg.RepairBackoff {
			continue
		}
		ripe = append(ripe, n)
	}
	sort.Slice(ripe, func(i, j int) bool { return ripe[i] < ripe[j] })
	for _, n := range ripe {
		s.down[n].attempted = true
		s.down[n].lastAttempt = now
		s.journalLocked(n, RepairStarted, "")
	}
	s.mu.Unlock()

	if len(ripe) > 0 {
		s.repair(ctx, ripe)
	}
}

// repair revives and restores the given nodes in one pass.
func (s *Supervisor) repair(ctx context.Context, nodes []transport.NodeID) {
	rctx, cancel := context.WithTimeout(ctx, s.cfg.RepairTimeout)
	defer cancel()

	// Bring replacements online first — the restore needs someone
	// listening under the dead IDs.
	alive := nodes[:0:0]
	for _, n := range nodes {
		if s.revive != nil {
			if err := s.revive(rctx, n); err != nil {
				s.journalOne(n, RepairFailed, fmt.Sprintf("revive: %v", err))
				continue
			}
		}
		alive = append(alive, n)
	}
	if len(alive) == 0 {
		return
	}

	// Prefer local restart-recovery: a durable node that replayed its
	// own checkpoint+journal is already whole, so restoring it from
	// parity would be pure waste — and, worse, would roll it back to the
	// recovery point, losing every write since the last Sync. Only nodes
	// that cannot vouch for their state (ephemeral, fresh, or corrupt
	// journals — the latter two journaled as an explicit parity
	// fallback) proceed to Guardian.Recover.
	var needRestore []transport.NodeID
	for _, n := range alive {
		switch st, err := s.recoveryState(rctx, n); {
		case err != nil:
			// Unreachable or pre-durability node: status quo, restore.
			needRestore = append(needRestore, n)
		case st.mode == recoveryRecovered:
			s.finishRepair([]transport.NodeID{n}, RepairLocalRecovery,
				fmt.Sprintf("replayed local journal to seq %d", st.seq))
		case st.mode == recoveryCorrupt:
			s.journalOne(n, RepairParityFallback, "local journal corrupt: "+st.detail)
			needRestore = append(needRestore, n)
		case st.mode == recoveryFresh:
			s.journalOne(n, RepairParityFallback, "local journal empty")
			needRestore = append(needRestore, n)
		default: // ephemeral
			needRestore = append(needRestore, n)
		}
	}
	if len(needRestore) == 0 {
		// Everyone self-recovered; refresh the recovery point so the
		// parity group reflects the replayed state.
		if s.allUp() {
			s.guard.Sync(rctx) //nolint:errcheck // transient; retried by autoSync
		}
		return
	}

	err := s.guard.Recover(rctx, needRestore)
	switch {
	case errors.Is(err, ErrNeverSynced):
		// Nothing to restore: there is no recovery point, so the
		// replacements legitimately start empty. Not a parity error.
		s.finishRepair(needRestore, RepairNothingToRestore, err.Error())
	case err != nil:
		for _, n := range needRestore {
			s.journalOne(n, RepairFailed, err.Error())
		}
	default:
		s.finishRepair(needRestore, RepairCompleted, "")
		// Fold the repaired reality back into the parity group so the
		// recovery point catches up (best effort; autoSync retries).
		if s.allUp() {
			s.guard.Sync(rctx) //nolint:errcheck // transient; retried by autoSync
		}
	}
}

// recoveryState asks a revived node how its local state came to be.
func (s *Supervisor) recoveryState(ctx context.Context, node transport.NodeID) (recoveryStateResp, error) {
	raw, err := s.det.Transport().Send(ctx, node, opRecoveryState, nil)
	if err != nil {
		return recoveryStateResp{}, err
	}
	return decode[recoveryStateResp](raw)
}

// finishRepair closes out repaired nodes: journal, drop them from the
// down-set, reopen their traffic (breakers), and let the detector see
// them alive immediately.
func (s *Supervisor) finishRepair(nodes []transport.NodeID, phase RepairPhase, detail string) {
	s.mu.Lock()
	for _, n := range nodes {
		delete(s.down, n)
		s.repairs++
		s.journalLocked(n, phase, detail)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		if s.retry != nil {
			s.retry.ResetBreaker(n)
		}
	}
	// Refresh the verdicts so the repaired nodes read up without waiting
	// out a probe interval: resumeMigrations and AwaitHealthy need allUp.
	pctx, cancel := context.WithTimeout(context.Background(), s.det.Policy().ProbeTimeout)
	defer cancel()
	for i := 0; i < s.det.Policy().UpAfter; i++ {
		s.det.ProbeOnce(pctx)
	}
	s.resumeMigrations()
}

// resumeMigrations re-drives in-flight bucket migrations once every
// node is reachable again. Best-effort: a migration that still cannot
// complete stays journalled and will be retried on the next repair (or
// by the next coordinator restart).
func (s *Supervisor) resumeMigrations() {
	s.mu.Lock()
	resume := s.resume
	s.mu.Unlock()
	if resume == nil || !s.allUp() {
		return
	}
	rctx, cancel := context.WithTimeout(context.Background(), s.cfg.RepairTimeout)
	defer cancel()
	resume(rctx)
}

func (s *Supervisor) allUp() bool {
	for _, nh := range s.det.Snapshot() {
		if nh.State != transport.NodeUp {
			return false
		}
	}
	return true
}

// Alarm returns the active alarm message ("" when nominal).
func (s *Supervisor) Alarm() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alarm
}

// Down lists the nodes currently tracked as confirmed-down, ascending.
func (s *Supervisor) Down() []transport.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedNodesLocked(s.down)
}

// Repairs returns the number of completed node repairs.
func (s *Supervisor) Repairs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairs
}

// Journal returns a copy of the repair journal in order (the most
// recent JournalCap records; see JournalStats for what was shed).
func (s *Supervisor) Journal() []RepairRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RepairRecord(nil), s.journal...)
}

// JournalStats reports the journal's current length, how many old
// records the ring bound has dropped, and the configured capacity.
func (s *Supervisor) JournalStats() (length int, dropped uint64, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.journal), s.journalDropped, s.cfg.JournalCap
}

// AwaitHealthy blocks until every node is up with no tracked failures
// and no alarm, or the context ends. An active alarm fails fast — the
// cluster cannot heal itself past the parity budget. Detection is
// asynchronous: called in the instant between a failure and its first
// failed probe/send, AwaitHealthy can truthfully report the cluster
// healthy.
func (s *Supervisor) AwaitHealthy(ctx context.Context) error {
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	for {
		s.mu.Lock()
		alarm := s.alarm
		downN := len(s.down)
		s.mu.Unlock()
		if alarm != "" {
			return fmt.Errorf("%w: %s", ErrRepairBudgetExceeded, alarm)
		}
		if downN == 0 && s.allUp() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

func (s *Supervisor) journalLocked(node transport.NodeID, phase RepairPhase, detail string) {
	if int(phase) < len(s.met.phases) {
		s.met.phases[phase].Inc()
	}
	s.seq++
	if len(s.journal) >= s.cfg.JournalCap {
		// Ring bound: shed the oldest records. Seq stays monotonic, so
		// an auditor can see exactly where the gap is.
		drop := len(s.journal) - s.cfg.JournalCap + 1
		s.journalDropped += uint64(drop)
		s.journal = append(s.journal[:0], s.journal[drop:]...)
	}
	s.journal = append(s.journal, RepairRecord{
		Seq:    s.seq,
		Node:   node,
		Phase:  phase,
		At:     s.now(),
		Detail: detail,
	})
}

func (s *Supervisor) journalOne(node transport.NodeID, phase RepairPhase, detail string) {
	s.mu.Lock()
	s.journalLocked(node, phase, detail)
	s.mu.Unlock()
}

func sortedNodesLocked(m map[transport.NodeID]*downNode) []transport.NodeID {
	out := make([]transport.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
