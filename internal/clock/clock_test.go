package clock

import (
	"testing"
	"time"
)

// TestFakeClock: an After fires exactly at its deadline, Step fires one
// channel at a time (equal deadlines in registration order), Advance
// fires everything due, and Stop ends stepping.
func TestFakeClock(t *testing.T) {
	start := time.Unix(100, 0)
	fc := NewFake(start)
	woke := make(chan time.Time, 1)
	go func() { woke <- <-fc.After(50 * time.Millisecond) }()
	if !fc.Step() {
		t.Fatal("Step returned false before Stop")
	}
	if at := <-woke; !at.Equal(start.Add(50 * time.Millisecond)) {
		t.Fatalf("woke at %v, want %v", at, start.Add(50*time.Millisecond))
	}

	first, second, later := fc.After(time.Second), fc.After(time.Second), fc.After(2*time.Second)
	fc.BlockUntil(3)
	fc.Step()
	select {
	case <-first:
	default:
		t.Fatal("Step did not fire the earlier-registered of two equal deadlines")
	}
	select {
	case <-second:
		t.Fatal("Step fired two channels")
	default:
	}
	fc.Advance(time.Second)
	<-second
	<-later
	if got := fc.Now(); !got.Equal(start.Add(50*time.Millisecond + 2*time.Second)) {
		t.Fatalf("Now = %v after the steps", got)
	}
	if at := <-fc.After(0); !at.Equal(fc.Now()) {
		t.Fatalf("After(0) fired at %v, want now", at)
	}

	fc.Stop()
	if fc.Step() {
		t.Fatal("Step returned true after Stop")
	}
	fc.BlockUntil(5) // released by Stop
}
