package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func newTestDetector(m *Memory, members []NodeID, downAfter int) *Detector {
	return NewDetector(m, members, DetectorPolicy{
		ProbeOp:      0,
		ProbeTimeout: 200 * time.Millisecond,
		DownAfter:    downAfter,
	})
}

// stateOf reads one member's verdict off the detector's Snapshot.
func stateOf(d *Detector, node NodeID) NodeState {
	for _, nh := range d.Snapshot() {
		if nh.Node == node {
			return nh.State
		}
	}
	panic("not a watched member")
}

func TestDetectorStateTransitions(t *testing.T) {
	m := NewMemory()
	members := []NodeID{0, 1, 2}
	for _, id := range members {
		m.Register(id, echoHandler)
	}
	d := newTestDetector(m, members, 2)
	ctx := context.Background()

	d.ProbeOnce(ctx)
	for _, id := range members {
		if st := stateOf(d, id); st != NodeUp {
			t.Fatalf("node %d after healthy probe: %v", id, st)
		}
	}

	// Kill node 1: first failed probe → suspect, second → down.
	m.Unregister(1)
	d.ProbeOnce(ctx)
	if st := stateOf(d, 1); st != NodeSuspect {
		t.Fatalf("node 1 after one failure: %v, want suspect", st)
	}
	d.ProbeOnce(ctx)
	if st := stateOf(d, 1); st != NodeDown {
		t.Fatalf("node 1 after two failures: %v, want down", st)
	}
	// Healthy peers unaffected.
	if stateOf(d, 0) != NodeUp || stateOf(d, 2) != NodeUp {
		t.Fatal("healthy nodes disturbed by peer failure")
	}

	// Revive: one success brings it back.
	m.Register(1, echoHandler)
	d.ProbeOnce(ctx)
	if st := stateOf(d, 1); st != NodeUp {
		t.Fatalf("node 1 after one success: %v, want up", st)
	}
}

func TestDetectorRemoteErrorCountsAsAlive(t *testing.T) {
	m := NewMemory()
	m.Register(0, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return nil, errors.New("handler rejects probes")
	})
	d := newTestDetector(m, []NodeID{0}, 1)
	d.ProbeOnce(context.Background())
	if st := stateOf(d, 0); st != NodeUp {
		t.Fatalf("node answering with a handler error marked %v, want up", st)
	}
}

func TestDetectorPassiveSignals(t *testing.T) {
	m := NewMemory()
	m.Register(0, echoHandler)
	d := newTestDetector(m, []NodeID{0}, 2)

	// Passive failures confirm a node down without any probe.
	d.ObserveSend(0, ErrUnknownNode)
	d.ObserveSend(0, ErrUnknownNode)
	if st := stateOf(d, 0); st != NodeDown {
		t.Fatalf("after two passive failures: %v, want down", st)
	}
	// A passive success brings it back.
	d.ObserveSend(0, nil)
	if st := stateOf(d, 0); st != NodeUp {
		t.Fatalf("after passive success: %v, want up", st)
	}
	// Unknown nodes are ignored (not watched membership).
	d.ObserveSend(42, ErrUnknownNode)
	snap := d.Snapshot()
	if len(snap) != 1 || snap[0].PassiveSignals != 3 || snap[0].ActiveProbes != 0 {
		t.Fatalf("snapshot accounting = %+v", snap)
	}
}

func TestDetectorRetryObserverIntegration(t *testing.T) {
	// Client traffic through Watch is live-traffic evidence: a send to a
	// dead node must mark it down with no probe at all.
	m := NewMemory()
	m.Register(0, echoHandler)
	m.Register(1, echoHandler)
	d := newTestDetector(m, []NodeID{0, 1}, 2)
	tr := d.Watch(m)
	ctx := context.Background()

	m.Unregister(1)
	// Each failed Send is one passive failure; the second confirms the
	// node down.
	if _, err := tr.Send(ctx, 1, 7, nil); err == nil {
		t.Fatal("send to dead node succeeded")
	}
	if st := stateOf(d, 1); st != NodeSuspect {
		t.Fatalf("node 1 after one failed send: %v, want suspect", st)
	}
	if _, err := tr.Send(ctx, 1, 7, nil); err == nil {
		t.Fatal("send to dead node succeeded")
	}
	if st := stateOf(d, 1); st != NodeDown {
		t.Fatalf("node 1 after two failed sends: %v, want down", st)
	}
	// Healthy traffic keeps node 0 up and counts signals.
	if _, err := tr.Send(ctx, 0, 7, nil); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap[0].PassiveSignals == 0 {
		t.Fatal("successful send produced no passive signal")
	}
	if snap[1].State != NodeDown || snap[1].LastError == "" || snap[1].ActiveProbes != 0 {
		t.Fatalf("node 1 health = %+v", snap[1])
	}
}
