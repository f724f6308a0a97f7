package transport

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// NodeState is a failure detector's verdict on one node.
type NodeState uint8

const (
	// NodeUp: the node answered its most recent signals.
	NodeUp NodeState = iota
	// NodeSuspect: at least one recent signal failed, but not enough to
	// confirm the node down.
	NodeSuspect
	// NodeDown: DownAfter consecutive signals failed — the node is
	// presumed dead or partitioned until it answers again.
	NodeDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeSuspect:
		return "suspect"
	case NodeDown:
		return "down"
	default:
		return "unknown"
	}
}

// DetectorPolicy tunes a Detector.
type DetectorPolicy struct {
	// ProbeOp is the op code sent as an active health probe. A node that
	// answers — even with a handler error — is alive; only transport
	// failures count against it.
	ProbeOp uint8
	// ProbeInterval is the period of the supervisor's loop, which runs
	// one probe round per pass (default 50ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the number of consecutive failed signals confirming a
	// node down (default 2). The first failure alone moves it to
	// NodeSuspect; one success takes the node back to NodeUp.
	DownAfter int
}

func (p *DetectorPolicy) fillDefaults() {
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 50 * time.Millisecond
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = time.Second
	}
	if p.DownAfter < 1 {
		p.DownAfter = 2
	}
}

// NodeHealth is a snapshot of one node's detector accounting.
type NodeHealth struct {
	Node                NodeID
	State               NodeState
	ConsecutiveFailures int
	LastError           string
	ActiveProbes        uint64 // probe signals seen
	PassiveSignals      uint64 // signals fed by ObserveSend
}

// Detector is a lightweight per-node failure detector: it combines
// active health probes (ProbeOnce sends ProbeOp to every member) with
// passive signals from live traffic (the Sends of a transport wrapped
// by Watch) into a three-state verdict per node, which Snapshot reports.
//
// Membership is authoritative, not discovered: the detector watches
// exactly the nodes it was constructed with, so a crashed node that
// drops out of the transport's directory still gets probed and
// confirmed down instead of silently disappearing.
type Detector struct {
	tr      Transport
	policy  DetectorPolicy
	members []NodeID

	mu    sync.Mutex
	nodes map[NodeID]*NodeHealth

	met detectorMetrics // set by Instrument before traffic; nil-safe
}

// NewDetector builds a detector over the transport watching the given
// membership. It has no loop of its own: whoever owns the detector
// calls ProbeOnce on its schedule (sdds.Supervisor, once per pass).
func NewDetector(tr Transport, members []NodeID, policy DetectorPolicy) *Detector {
	policy.fillDefaults()
	d := &Detector{
		tr:      tr,
		policy:  policy,
		members: append([]NodeID(nil), members...),
		nodes:   make(map[NodeID]*NodeHealth, len(members)),
	}
	for _, n := range members {
		d.nodes[n] = &NodeHealth{Node: n, State: NodeUp}
	}
	return d
}

// Policy returns the effective policy (defaults filled).
func (d *Detector) Policy() DetectorPolicy { return d.policy }

// Transport returns the transport the detector probes over — the
// unwatched path a supervisor should use for control-plane queries
// against nodes it is inspecting.
func (d *Detector) Transport() Transport { return d.tr }

// ProbeOnce runs one synchronous probe round: ProbeOp goes to every
// member in one Broadcast under a ProbeTimeout context, so a hung node
// holds the round no longer than that, and each leg's outcome is folded
// in as one active signal.
func (d *Detector) ProbeOnce(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, d.policy.ProbeTimeout)
	defer cancel()
	for _, r := range Broadcast(pctx, d.tr, d.members, d.policy.ProbeOp, nil) {
		d.signal(r.Node, r.Err, false)
	}
}

// ObserveSend feeds a passive signal from live traffic; Watch calls it
// for every Send outcome. A nil error (or a remote handler error, which
// proves the node answered) counts as alive; transport failures count
// against the node.
func (d *Detector) ObserveSend(node NodeID, err error) {
	d.signal(node, err, true)
}

// Watch wraps tr so that every Send outcome, and every leg of a fan-out
// tr runs as one scatter, reaches the detector as a passive signal:
// client traffic then detects a dead node as fast as it fails, without
// waiting for the next probe. A caller-side cancellation or timeout is
// not reported — it says nothing about the node — but an expired answer
// is: the node read the frame and replied.
func (d *Detector) Watch(tr Transport) Transport {
	return &watched{Transport: tr, d: d}
}

type watched struct {
	Transport
	d *Detector
}

func (w *watched) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	resp, err := w.Transport.Send(ctx, node, op, payload)
	w.observe(node, err)
	return resp, err
}

// scatter forwards a fan-out to the wrapped transport's caller-side
// scatter, as SendsWithContext forwards its marker, and observes every
// leg's outcome exactly as Send would.
func (w *watched) scatter(ctx context.Context, nodes []NodeID, op uint8, payloadAt func(int) []byte, out []Result) bool {
	s, ok := w.Transport.(scatterer)
	if !ok || !s.scatter(ctx, nodes, op, payloadAt, out) {
		return false
	}
	for _, r := range out {
		w.observe(r.Node, r.Err)
	}
	return true
}

// observe reports a send outcome, unless it is the caller's own
// cancellation or timeout.
func (w *watched) observe(node NodeID, err error) {
	if answeredExpired(err) || !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		w.d.ObserveSend(node, err)
	}
}

// SendsWithContext forwards the wrapped transport's marker: Watch only
// observes the outcome, so it aborts exactly when its inner transport
// does.
func (w *watched) SendsWithContext() bool {
	cs, ok := w.Transport.(CtxSender)
	return ok && cs.SendsWithContext()
}

// alive classifies a send outcome: the node is alive if the request got
// an answer — an application-level error or a deadline-expired drop
// both prove the node read the frame and replied. Only transport
// failures (no answer at all) count against it: a saturated node
// answers late, and lateness must never read as dying.
func alive(err error) bool {
	var re *RemoteError
	return err == nil || errors.As(err, &re) || answeredExpired(err)
}

// signal folds one outcome into the node's state machine.
func (d *Detector) signal(node NodeID, err error, passive bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[node]
	if !ok {
		return // not a watched member
	}
	if passive {
		n.PassiveSignals++
		d.met.passive.Inc()
	} else {
		n.ActiveProbes++
		d.met.probes.Inc()
	}
	prev := n.State
	if alive(err) {
		n.ConsecutiveFailures = 0
		if n.State != NodeUp {
			n.State = NodeUp
			n.LastError = ""
			d.met.toUp.Inc()
		}
	} else {
		n.ConsecutiveFailures++
		n.LastError = err.Error()
		switch {
		case n.ConsecutiveFailures >= d.policy.DownAfter && n.State != NodeDown:
			n.State = NodeDown
			d.met.toDown.Inc()
		case n.State == NodeUp:
			n.State = NodeSuspect
			d.met.toSuspect.Inc()
		}
	}
	switch {
	case prev != NodeDown && n.State == NodeDown:
		d.met.downNodes.Add(1)
	case prev == NodeDown && n.State != NodeDown:
		d.met.downNodes.Add(-1)
	}
}

// Snapshot returns every member's health, sorted by node ID.
func (d *Detector) Snapshot() []NodeHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeHealth, 0, len(d.nodes))
	for _, n := range d.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
