package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func newTestDetector(m *Memory, members []NodeID, downAfter int) *Detector {
	return NewDetector(m, members, DetectorPolicy{
		ProbeOp:      0,
		ProbeTimeout: 200 * time.Millisecond,
		DownAfter:    downAfter,
	}, clock.Real{})
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
		if st := d.State(id); st != NodeUp {
			t.Fatalf("node %d after healthy probe: %v", id, st)
		}
	}

	// Kill node 1: first failed probe → suspect, second → down.
	m.Unregister(1)
	d.ProbeOnce(ctx)
	if st := d.State(1); st != NodeSuspect {
		t.Fatalf("node 1 after one failure: %v, want suspect", st)
	}
	d.ProbeOnce(ctx)
	if st := d.State(1); st != NodeDown {
		t.Fatalf("node 1 after two failures: %v, want down", st)
	}
	if down := d.Down(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("Down = %v", down)
	}
	// Healthy peers unaffected.
	if d.State(0) != NodeUp || d.State(2) != NodeUp {
		t.Fatal("healthy nodes disturbed by peer failure")
	}

	// Revive: one success brings it back.
	m.Register(1, echoHandler)
	d.ProbeOnce(ctx)
	if st := d.State(1); st != NodeUp {
		t.Fatalf("node 1 after one success: %v, want up", st)
	}
	if down := d.Down(); len(down) != 0 {
		t.Fatalf("Down after recovery = %v", down)
	}
}

func TestDetectorRemoteErrorCountsAsAlive(t *testing.T) {
	m := NewMemory()
	m.Register(0, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return nil, errors.New("handler rejects probes")
	})
	d := newTestDetector(m, []NodeID{0}, 1)
	d.ProbeOnce(context.Background())
	if st := d.State(0); st != NodeUp {
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
	if st := d.State(0); st != NodeDown {
		t.Fatalf("after two passive failures: %v, want down", st)
	}
	// A passive success brings it back.
	d.ObserveSend(0, nil)
	if st := d.State(0); st != NodeUp {
		t.Fatalf("after passive success: %v, want up", st)
	}
	// Unknown nodes are ignored (not watched membership).
	d.ObserveSend(42, ErrUnknownNode)
	if st := d.State(42); st != NodeUp {
		t.Fatalf("unwatched node state = %v", st)
	}
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
	if st := d.State(1); st != NodeSuspect {
		t.Fatalf("node 1 after one failed send: %v, want suspect", st)
	}
	if _, err := tr.Send(ctx, 1, 7, nil); err == nil {
		t.Fatal("send to dead node succeeded")
	}
	if st := d.State(1); st != NodeDown {
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

// TestDetectorBackgroundProbing: the probe loop runs one round per
// ProbeInterval of the detector's clock, so a dead node reads suspect
// after one fake tick and down after exactly DownAfter.
func TestDetectorBackgroundProbing(t *testing.T) {
	const downAfter = 3
	m := NewMemory()
	m.Register(0, echoHandler)
	fc := clock.NewFake(time.Unix(0, 0))
	d := NewDetector(m, []NodeID{0}, DetectorPolicy{
		ProbeInterval: time.Second,
		ProbeTimeout:  100 * time.Millisecond,
		DownAfter:     downAfter,
	}, fc)
	d.Start()
	defer d.Stop()

	m.Unregister(0)
	if snap := d.Snapshot(); snap[0].ActiveProbes != 0 || snap[0].State != NodeUp {
		t.Fatalf("before any tick: %+v, want up with no probes", snap[0])
	}
	for tick := 1; tick <= downAfter; tick++ {
		fc.BlockUntil(1) // the loop has armed its next probe
		fc.Step()
		fc.BlockUntil(1) // ... and finished this round
		want := NodeSuspect
		if tick == downAfter {
			want = NodeDown
		}
		if snap := d.Snapshot(); snap[0].State != want || snap[0].ActiveProbes != uint64(tick) {
			t.Fatalf("after %d ticks: %+v, want %v after %d probes", tick, snap[0], want, tick)
		}
	}
	if got, want := fc.Now(), time.Unix(downAfter, 0); !got.Equal(want) {
		t.Fatalf("fake clock at %v, want %v: one probe round per ProbeInterval", got, want)
	}
}
