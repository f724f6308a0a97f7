package esdds

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/sdds"
	"repro/internal/transport"
)

// SelfHealingConfig tunes the availability loop enabled by
// WithSelfHealing: one supervisor loop whose every pass probes each
// node's health and then revives failed nodes from their own journals.
//
// Only the probing is tunable (zero values take the transport
// defaults); the supervisor's debounce, backoff and journal bound are
// fixed (DESIGN.md §9).
type SelfHealingConfig struct {
	ProbeInterval time.Duration // period of the loop: one probe round and one repair pass (default 50ms)
	ProbeTimeout  time.Duration // deadline of one probe round (default 1s)
	DownAfter     int           // consecutive failures before "down" (default 2)
}

// WithSelfHealing turns the cluster into a self-healing one: a
// supervisor loop probes node health and revives confirmed-dead nodes,
// each replaying its own journal. A node that comes back without its
// state (a journal that fails verification, a lost data dir, no durable
// store) raises a sticky alarm and stays down; nothing else holds a copy
// to restore it from. Until a node is back, searches treat it as failed
// and return an IncompleteError naming it.
//
// A cluster that hosts its own nodes needs WithDataDir as well (the
// constructors reject self-healing without it); a dialed cluster relies
// on each daemon's -data-dir. Inspect progress with ClusterHealth (the
// alarm, down and lost nodes, repair count) and SelfHealing().Journal;
// wait for convergence with SelfHealing().AwaitHealthy.
func WithSelfHealing(cfg SelfHealingConfig) ClusterOption {
	return func(c *clusterConfig) { c.selfHeal = &cfg }
}

// RepairRecord is one entry of the supervisor's repair journal.
type RepairRecord = sdds.RepairRecord

// enableSelfHealing wires the supervisor over an already-built cluster
// and its detector (built with the transport stack), starts its loop
// on clk, and registers its shutdown ahead of the transport teardown.
//
// A node failure mid-split/merge leaves the migration journalled
// in-flight with its buckets frozen; finishing each repair, the
// supervisor rolls those handoffs forward (or aborts them) so the
// cluster returns to nominal without operator action.
func (c *Cluster) enableSelfHealing(clk clock.Clock) error {
	if c.nodes != nil && c.dataDir == "" {
		return fmt.Errorf("esdds: WithSelfHealing on a cluster that hosts its own nodes requires WithDataDir: an ephemeral node has no state to revive")
	}
	det := c.det
	var revive sdds.Reviver
	if c.mem != nil {
		revive = func(_ context.Context, node transport.NodeID) error {
			return c.ReviveNode(int(node))
		}
	}
	sup := sdds.NewSupervisor(det, revive, c.inner.Coordinator(), clk)
	sup.Instrument(c.met)
	sup.Start()
	c.sup = sup
	// Stop the loop before the transports it probes are closed.
	c.close = append([]func() error{func() error {
		sup.Stop()
		return nil
	}}, c.close...)
	return nil
}

// SelfHealing is the handle to a self-healing cluster's availability
// loop: what a ClusterHealth snapshot cannot do — wait for convergence
// and read the ordered repair journal.
type SelfHealing struct{ c *Cluster }

// SelfHealing returns the availability-loop handle, or nil unless the
// cluster was built with WithSelfHealing.
func (c *Cluster) SelfHealing() *SelfHealing {
	if c.sup == nil {
		return nil
	}
	return &SelfHealing{c: c}
}

// AwaitHealthy blocks until every node is up and no repair is pending,
// or the context ends, re-checking at the end of each loop pass. An
// active alarm (a node whose state is lost) fails immediately with
// sdds.ErrNodeStateLost. Detection is asynchronous: called in the
// instant between a failure and its first failed probe or send,
// AwaitHealthy can truthfully report healthy.
func (h *SelfHealing) AwaitHealthy(ctx context.Context) error { return h.c.sup.AwaitHealthy(ctx) }

// Journal returns the ordered repair journal: every detection, flap,
// repair attempt, completion, and alarm.
func (h *SelfHealing) Journal() []RepairRecord { return h.c.sup.Journal() }

// NodeHealth is one node's health as seen by the cluster: the failure
// detector's verdict and (for fault-injected clusters) injected-fault
// counters.
type NodeHealth struct {
	Node  int
	State string // "up", "suspect", "down" — "n/a" without self-healing

	// Failure detector (zero without self-healing).
	ConsecutiveFailures int
	LastError           string
	ActiveProbes        uint64
	PassiveSignals      uint64

	// Fault injection (nil without WithFaultInjection).
	Faults *transport.FaultStats

	// Durability is the node's recovery outcome at its most recent
	// (re)start — "fresh" or "recovered" — or "" for ephemeral nodes (no
	// WithDataDir).
	Durability string
}

// ClusterHealth is a point-in-time availability snapshot.
type ClusterHealth struct {
	Nodes       []NodeHealth
	SelfHealing bool
	Alarm       string // names each node whose state is lost, "" when nominal; sticky until the node replays its own journal
	Down        []int  // confirmed-down nodes under repair, ascending
	Lost        []int  // down nodes whose state is lost (the alarm's subjects)
	Repairs     uint64 // completed repairs

	// Repair-journal bookkeeping (zero without self-healing): current
	// length and how many old records the ring bound shed.
	JournalLen     int
	JournalDropped uint64

	// Migrations is the coordinator's split/merge ledger (durable with
	// WithDataDir). A non-zero InFlight means a handoff is awaiting
	// resume; Resumed counts re-drives by this process. Invariant:
	// Started == Committed + Aborted + InFlight.
	Migrations sdds.MigrationStats
}

// ClusterHealth assembles the availability picture across every layer:
// detector verdicts, injected-fault counters, and the repair
// supervisor's state. It works on any cluster; without
// WithSelfHealing the detector fields read "n/a"/zero.
func (c *Cluster) ClusterHealth() ClusterHealth {
	n := len(c.inner.Placement().Nodes())
	out := ClusterHealth{Nodes: make([]NodeHealth, n)}
	for i := range out.Nodes {
		out.Nodes[i] = NodeHealth{Node: i, State: "n/a"}
	}
	if c.det != nil {
		out.SelfHealing = true
		for _, nh := range c.det.Snapshot() {
			i := int(nh.Node)
			if i < 0 || i >= n {
				continue
			}
			out.Nodes[i].State = nh.State.String()
			out.Nodes[i].ConsecutiveFailures = nh.ConsecutiveFailures
			if nh.LastError != "" {
				out.Nodes[i].LastError = nh.LastError
			}
			out.Nodes[i].ActiveProbes = nh.ActiveProbes
			out.Nodes[i].PassiveSignals = nh.PassiveSignals
		}
	}
	if c.faulty != nil {
		for _, fs := range c.faulty.Stats() {
			i := int(fs.Node)
			if i < 0 || i >= n {
				continue
			}
			fs := fs
			out.Nodes[i].Faults = &fs
		}
	}
	if c.sup != nil {
		h := c.sup.Health()
		out.Alarm = h.Alarm
		for _, id := range h.Down {
			out.Down = append(out.Down, int(id))
		}
		for _, id := range h.Lost {
			out.Lost = append(out.Lost, int(id))
		}
		out.Repairs = h.Repairs
		out.JournalLen, out.JournalDropped = h.JournalLen, h.JournalDropped
	}
	c.storeMu.Lock()
	for id, rec := range c.recovery {
		if id >= 0 && id < n {
			out.Nodes[id].Durability = rec.Outcome
		}
	}
	c.storeMu.Unlock()
	out.Migrations = c.inner.Coordinator().MigrationStats()
	return out
}
