package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// faultyOverEcho builds a Faulty over a Memory with n echo nodes.
func faultyOverEcho(n int, seed int64) (*Faulty, *Memory) {
	mem := NewMemory()
	for i := NodeID(0); i < NodeID(n); i++ {
		mem.Register(i, echoHandler)
	}
	return NewFaulty(mem, seed, clock.Real{}), mem
}

func TestFaultyTransparentByDefault(t *testing.T) {
	f, _ := faultyOverEcho(2, 1)
	resp, err := f.Send(context.Background(), 0, 7, []byte("x"))
	if err != nil || string(resp) != "\x07x" {
		t.Fatalf("Send = %q, %v", resp, err)
	}
	if got := f.Nodes(); len(got) != 2 {
		t.Errorf("Nodes = %v", got)
	}
}

func TestFaultyDeterministicOutcomes(t *testing.T) {
	// Two injectors with the same seed and schedule must fault the same
	// requests in the same way.
	run := func() []bool {
		f, _ := faultyOverEcho(1, 42)
		f.SetDefault(Fault{Drop: 0.5})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			_, err := f.Send(context.Background(), 0, 1, nil)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at request %d", i)
		}
	}
	ok := 0
	for _, v := range a {
		if v {
			ok++
		}
	}
	if ok == 0 || ok == len(a) {
		t.Errorf("Drop=0.5 produced %d/%d successes — schedule not applied", ok, len(a))
	}
}

func TestFaultyDropAndFailErrors(t *testing.T) {
	f, _ := faultyOverEcho(1, 7)
	f.SetFault(0, Fault{Drop: 1})
	if _, err := f.Send(context.Background(), 0, 1, nil); !errors.Is(err, ErrInjectedDrop) {
		t.Errorf("drop err = %v", err)
	}
	f.SetFault(0, Fault{Fail: 1})
	if _, err := f.Send(context.Background(), 0, 1, nil); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("fail err = %v", err)
	}
	st := f.Stats()[0]
	if st.Dropped != 1 || st.Failed != 1 || st.Sends != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultyBlackoutAndRestore(t *testing.T) {
	f, _ := faultyOverEcho(3, 1)
	f.Blackout(1, 2)
	for _, n := range []NodeID{1, 2} {
		if _, err := f.Send(context.Background(), n, 1, nil); !errors.Is(err, ErrNodeDown) {
			t.Errorf("blackout of node %d: err = %v", n, err)
		}
	}
	// Healthy node unaffected.
	if _, err := f.Send(context.Background(), 0, 1, nil); err != nil {
		t.Errorf("healthy node err = %v", err)
	}
	f.Restore(1)
	if _, err := f.Send(context.Background(), 1, 1, nil); err != nil {
		t.Errorf("restored node err = %v", err)
	}
	if _, err := f.Send(context.Background(), 2, 1, nil); !errors.Is(err, ErrNodeDown) {
		t.Errorf("still-black node err = %v", err)
	}
	// Blacked-out nodes stay in the membership view.
	if got := f.Nodes(); len(got) != 3 {
		t.Errorf("Nodes = %v", got)
	}
}

func TestFaultyDuplicateDelivery(t *testing.T) {
	mem := NewMemory()
	var calls int32
	mem.Register(0, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		atomic.AddInt32(&calls, 1)
		return []byte{byte(atomic.LoadInt32(&calls))}, nil
	})
	f := NewFaulty(mem, 3, clock.Real{})
	f.SetFault(0, Fault{Dup: 1})
	resp, err := f.Send(context.Background(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 2 {
		t.Errorf("handler ran %d times, want 2", calls)
	}
	// The first response wins; the duplicate's is discarded.
	if len(resp) != 1 || resp[0] != 1 {
		t.Errorf("resp = %v, want first delivery's", resp)
	}
}

// TestFaultyDelayRespectsContext: an injected delay waits on the
// Faulty's clock, and a context that ends first cuts it short.
func TestFaultyDelayRespectsContext(t *testing.T) {
	mem := NewMemory()
	mem.Register(0, echoHandler)
	fc := clock.NewFake(time.Unix(0, 0))
	f := NewFaulty(mem, 5, fc)
	f.SetFault(0, Fault{DelayProb: 1, Delay: 5 * time.Second})
	done := make(chan error, 1)
	go func() {
		_, err := f.Send(context.Background(), 0, 1, nil)
		done <- err
	}()
	fc.BlockUntil(1)
	fc.Advance(5*time.Second - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("delayed send returned before its delay elapsed: %v", err)
	default:
	}
	fc.Advance(time.Nanosecond)
	if err := <-done; err != nil {
		t.Fatalf("delayed send = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := f.Send(ctx, 0, 1, nil)
		done <- err
	}()
	fc.BlockUntil(1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("delayed send under a canceled context = %v, want context.Canceled", err)
	}
}

func TestFaultyPerNodeOverride(t *testing.T) {
	f, _ := faultyOverEcho(2, 9)
	f.SetDefault(Fault{Drop: 1})
	f.SetFault(1, Fault{}) // node 1 exempt
	if _, err := f.Send(context.Background(), 0, 1, nil); err == nil {
		t.Error("default schedule not applied to node 0")
	}
	if _, err := f.Send(context.Background(), 1, 1, nil); err != nil {
		t.Errorf("override not applied to node 1: %v", err)
	}
	f.ClearFaults()
	if _, err := f.Send(context.Background(), 0, 1, nil); err != nil {
		t.Errorf("ClearFaults left schedule active: %v", err)
	}
}
