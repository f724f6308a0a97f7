package sdds

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrNodeStateLost reports a node that came back without the state it
// acknowledged: its journal failed verification, its store came back
// fresh (the disk was lost), or it runs without a durable store. Nothing
// in the cluster holds another copy, so the supervisor raises a sticky
// alarm instead of letting the node rejoin empty.
var ErrNodeStateLost = errors.New("sdds: node state lost")

// Repair timing, read off the supervisor's clock. Tests step a
// clock.FakeClock past these rather than shortening them.
const (
	// debounce is how long a node must stay confirmed-down before repair
	// begins. A flap shorter than this (a lifted partition, a restarted
	// process) exits cleanly without a revive.
	debounce = 100 * time.Millisecond
	// repairBackoff is the pause between repair attempts against a node
	// whose revive keeps failing (e.g. it is not reachable yet).
	repairBackoff = 250 * time.Millisecond
	// repairTimeout bounds one repair pass. It is a context deadline,
	// and so runs on the wall clock.
	repairTimeout = 30 * time.Second
	// journalCap bounds the repair journal: once full, the oldest
	// records are dropped (and counted) rather than growing without
	// bound under a flapping node.
	journalCap = 512
)

// Reviver restarts a dead node under its ID from the node's own durable
// state — in a memory cluster it reopens the node's store, replays it
// and registers a handler; in a real deployment it might restart the
// daemon. A nil Reviver means nodes come back out of band (the
// supervisor keeps asking the node how it recovered until it answers).
// A revive that fails with wal.ErrCorrupt or ErrNodeStateLost raises
// the node's alarm; any other error is retried after repairBackoff.
type Reviver func(ctx context.Context, node transport.NodeID) error

// RepairPhase labels one step of a node's repair lifecycle.
type RepairPhase uint8

const (
	// RepairDetected: the detector confirmed the node down.
	RepairDetected RepairPhase = iota
	// RepairFlap: the node came back before the debounce elapsed; no
	// repair was needed (or attempted).
	RepairFlap
	// RepairStarted: revive + recovery check began.
	RepairStarted
	// RepairFailed: this attempt failed; it will be retried after
	// repairBackoff.
	RepairFailed
	// RepairAlarm: the node's state is lost (ErrNodeStateLost); it is
	// not revived again until it reports a local replay by itself.
	RepairAlarm
	// RepairLocalRecovery: the revived node replayed its own durable
	// journal — the one way a repair completes.
	RepairLocalRecovery
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
	case RepairFailed:
		return "failed"
	case RepairAlarm:
		return "alarm"
	case RepairLocalRecovery:
		return "local-recovery"
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
	attempted   bool // a revive was attempted: no silent flap exit anymore
	lastAttempt time.Time
}

// Supervisor closes the availability loop: each pass runs one Detector
// probe round, then folds the verdicts in — debouncing flaps, reviving
// confirmed-dead nodes from their own journals, and journaling every
// step. A revived node counts as repaired only when it reports a replay
// of its local journal; a node whose state is lost raises a sticky
// alarm and stays down. A node under repair is simply a failed node to
// searches (they return an IncompleteError naming it).
//
// Concurrency: all probing and repair work runs on the supervisor's
// single loop goroutine, the only timer of self-healing; state reads
// (Down, Journal, Alarm) take the mutex.
type Supervisor struct {
	det    *transport.Detector
	revive Reviver
	coord  *Coordinator // re-drives migrations a repair leaves in flight
	clk    clock.Clock

	mu             sync.Mutex
	down           map[transport.NodeID]*downNode
	lost           map[transport.NodeID]string // sticky alarms: why each node's state is lost
	journal        []RepairRecord
	journalDropped uint64 // oldest records shed by the ring bound
	seq            uint64
	repairs        uint64        // completed repairs (monotonic)
	passed         chan struct{} // closed and replaced as each pass ends: wakes AwaitHealthy

	started bool
	stop    chan struct{}
	done    chan struct{}

	met supervisorMetrics // set by Instrument before Start; nil-safe
}

// NewSupervisor wires a supervisor over a detector, timed by clk.
// revive may be nil (nodes come back out of band), and so may coord
// (no in-flight migrations are re-driven after a repair).
func NewSupervisor(det *transport.Detector, revive Reviver, coord *Coordinator, clk clock.Clock) *Supervisor {
	return &Supervisor{
		det:    det,
		revive: revive,
		coord:  coord,
		clk:    clk,
		down:   make(map[transport.NodeID]*downNode),
		lost:   make(map[transport.NodeID]string),
		passed: make(chan struct{}),
	}
}

// Start launches the supervision loop: one Reconcile every
// ProbeInterval of the clock. The first wake-up is armed before Start
// returns, and each next one only after the pass it follows has
// finished, so the loop keeps exactly one wake-up pending.
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
	go s.loop(stop, done, s.clk.After(s.det.Policy().ProbeInterval))
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

func (s *Supervisor) loop(stop, done chan struct{}, tick <-chan time.Time) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-tick:
			s.Reconcile(context.Background())
			tick = s.clk.After(s.det.Policy().ProbeInterval)
		}
	}
}

// Reconcile runs one supervision pass: a detector probe round, then
// fold the verdicts into the down-set, absorb flaps, and fire any due
// repairs; AwaitHealthy re-checks once the pass ends. The loop calls it
// once every ProbeInterval; tests call it directly to step the system
// one deterministic pass at a time.
func (s *Supervisor) Reconcile(ctx context.Context) {
	defer s.endPass()
	s.det.ProbeOnce(ctx)
	now := s.clk.Now()
	states := s.det.Snapshot()

	s.mu.Lock()
	up := make(map[transport.NodeID]bool, len(states))
	for _, nh := range states {
		switch nh.State {
		case transport.NodeDown:
			if _, tracked := s.down[nh.Node]; !tracked {
				s.down[nh.Node] = &downNode{since: now}
				s.journalLocked(nh.Node, RepairDetected, nh.LastError)
			}
		case transport.NodeUp:
			up[nh.Node] = true
			if dn, tracked := s.down[nh.Node]; tracked && !dn.attempted {
				// Came back within its own state — a flap, nothing to
				// repair. (Once a revive was attempted the node must
				// report how it recovered.)
				delete(s.down, nh.Node)
				s.journalLocked(nh.Node, RepairFlap, fmt.Sprintf("down %v", now.Sub(dn.since).Round(time.Millisecond)))
			}
		}
	}

	var ripe []transport.NodeID
	for n, dn := range s.down {
		_, lost := s.lost[n]
		switch {
		case lost && !up[n]:
			continue // alarmed: never revived again
		case now.Sub(dn.since) < debounce:
			continue
		case dn.attempted && now.Sub(dn.lastAttempt) < repairBackoff:
			continue
		}
		ripe = append(ripe, n)
	}
	sort.Slice(ripe, func(i, j int) bool { return ripe[i] < ripe[j] })
	for _, n := range ripe {
		s.down[n].attempted = true
		s.down[n].lastAttempt = now
		if _, alarmed := s.lost[n]; !alarmed {
			s.journalLocked(n, RepairStarted, "")
		}
	}
	s.mu.Unlock()

	if len(ripe) == 0 {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, repairTimeout)
	defer cancel()
	for _, n := range ripe {
		s.repair(rctx, n, up[n])
	}
}

// repair asks node n how it recovered, reviving it first unless it is
// already up. A replay of its own journal completes the repair; anything
// else means its state is lost. An alarmed node is only ripe once it is
// up again by other means, so it is re-asked but never revived, and its
// alarm clears exactly when the node itself reports a replay.
func (s *Supervisor) repair(ctx context.Context, n transport.NodeID, up bool) {
	if !up && s.revive != nil {
		if err := s.revive(ctx, n); err != nil {
			if errors.Is(err, wal.ErrCorrupt) || errors.Is(err, ErrNodeStateLost) {
				s.raiseAlarm(n, "revive: "+err.Error())
			} else {
				s.journalOne(n, RepairFailed, fmt.Sprintf("revive: %v", err))
			}
			return
		}
	}
	raw, err := s.det.Transport().Send(ctx, n, opRecoveryState, nil)
	var st recoveryStateResp
	if err == nil {
		st, err = decode[recoveryStateResp](raw)
	}
	switch {
	case err != nil:
		s.journalOne(n, RepairFailed, fmt.Sprintf("recovery state: %v", err))
	case st.mode == recoveryRecovered:
		s.finishRepair(ctx, n, fmt.Sprintf("replayed local journal to seq %d", st.seq))
	case st.mode == recoveryFresh:
		s.raiseAlarm(n, "store came back fresh: its data dir was lost")
	default:
		s.raiseAlarm(n, "node runs without a durable store")
	}
}

// raiseAlarm marks a node's state lost, journaling the alarm the first
// time. The node stays in the down-set.
func (s *Supervisor) raiseAlarm(n transport.NodeID, why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lost[n]; ok {
		return
	}
	s.lost[n] = why
	s.journalLocked(n, RepairAlarm, why)
}

// finishRepair closes out a repaired node: journal, drop it from the
// down-set (and any alarm), and let the detector see it alive
// immediately.
func (s *Supervisor) finishRepair(ctx context.Context, n transport.NodeID, detail string) {
	s.mu.Lock()
	delete(s.down, n)
	delete(s.lost, n)
	s.repairs++
	s.journalLocked(n, RepairLocalRecovery, detail)
	s.mu.Unlock()
	// Refresh the verdicts so the repaired node reads up within this
	// pass, not the next: resumeMigrations and AwaitHealthy need allUp.
	s.det.ProbeOnce(ctx)
	s.resumeMigrations()
}

// resumeMigrations re-drives the coordinator's in-flight bucket
// migrations once every node is reachable again: a migration interrupted
// by the very node failure that triggered the repair leaves frozen
// buckets behind, and resolving it promptly is part of returning the
// cluster to nominal. Best-effort: a migration that still cannot
// complete stays journalled and will be retried on the next repair (or
// by the next coordinator restart).
func (s *Supervisor) resumeMigrations() {
	if s.coord == nil || !s.allUp() {
		return
	}
	rctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
	defer cancel()
	s.coord.ResumeMigrations(rctx) //nolint:errcheck // best-effort; the ledger keeps the intent
}

func (s *Supervisor) allUp() bool {
	for _, nh := range s.det.Snapshot() {
		if nh.State != transport.NodeUp {
			return false
		}
	}
	return true
}

// endPass wakes every AwaitHealthy caller to re-check.
func (s *Supervisor) endPass() {
	s.mu.Lock()
	close(s.passed)
	s.passed = make(chan struct{})
	s.mu.Unlock()
}

// Alarm returns the active alarm message naming every node whose state
// is lost ("" when nominal).
func (s *Supervisor) Alarm() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alarmLocked()
}

func (s *Supervisor) alarmLocked() string {
	var parts []string
	for _, n := range sortedNodesLocked(s.lost) {
		parts = append(parts, fmt.Sprintf("node %d: %s", n, s.lost[n]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "state lost on " + strings.Join(parts, "; ")
}

// Lost lists the nodes whose state is lost, ascending.
func (s *Supervisor) Lost() []transport.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedNodesLocked(s.lost)
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
// recent journalCap records; see JournalStats for what was shed).
func (s *Supervisor) Journal() []RepairRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RepairRecord(nil), s.journal...)
}

// JournalStats reports the journal's current length and how many old
// records the ring bound has dropped.
func (s *Supervisor) JournalStats() (length int, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.journal), s.journalDropped
}

// AwaitHealthy blocks until every node is up with no tracked failures
// and no alarm, or the context ends. An active alarm fails fast with
// ErrNodeStateLost — the cluster cannot heal a node whose state is gone.
// It re-checks at the end of each pass and arms no timer of its own.
// Detection is asynchronous: called in the instant between a failure
// and its first failed probe/send, AwaitHealthy can truthfully report
// the cluster healthy.
func (s *Supervisor) AwaitHealthy(ctx context.Context) error {
	for {
		s.mu.Lock()
		passed, alarm, downN := s.passed, s.alarmLocked(), len(s.down)
		s.mu.Unlock()
		if alarm != "" {
			return fmt.Errorf("%w: %s", ErrNodeStateLost, alarm)
		}
		if downN == 0 && s.allUp() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-passed:
		}
	}
}

func (s *Supervisor) journalLocked(node transport.NodeID, phase RepairPhase, detail string) {
	if int(phase) < len(s.met.phases) {
		s.met.phases[phase].Inc()
	}
	s.seq++
	if len(s.journal) >= journalCap {
		// Ring bound: shed the oldest records. Seq stays monotonic, so
		// an auditor can see exactly where the gap is.
		drop := len(s.journal) - journalCap + 1
		s.journalDropped += uint64(drop)
		s.journal = append(s.journal[:0], s.journal[drop:]...)
	}
	s.journal = append(s.journal, RepairRecord{
		Seq:    s.seq,
		Node:   node,
		Phase:  phase,
		At:     s.clk.Now(),
		Detail: detail,
	})
}

func (s *Supervisor) journalOne(node transport.NodeID, phase RepairPhase, detail string) {
	s.mu.Lock()
	s.journalLocked(node, phase, detail)
	s.mu.Unlock()
}

func sortedNodesLocked[V any](m map[transport.NodeID]V) []transport.NodeID {
	out := make([]transport.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
