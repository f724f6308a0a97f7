// Package clock is the one way time reaches a decision in the cluster's
// control loops and the load generator: code asks a Clock what time it
// is and for a channel that fires after a duration, so a test can step
// a FakeClock instead of waiting on the wall clock.
package clock

import (
	"sync"
	"time"
)

// Clock tells the time and schedules wake-ups.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives the time once d has passed.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually driven Clock. Time moves only when a test
// calls Advance or Step; a channel returned by After fires once fake
// time reaches its deadline. A loop that re-arms After after each wake
// can thus be stepped one wake at a time:
//
//	fc.Step()        // fire the earliest pending After
//	fc.BlockUntil(n) // wait until all n loops have re-armed
type FakeClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	waiters []waiter
	seq     uint64
	stopped bool
}

type waiter struct {
	at  time.Time
	seq uint64 // registration order: breaks deadline ties
	ch  chan time.Time
}

// NewFake returns a fake clock standing at start.
func NewFake(start time.Time) *FakeClock {
	c := &FakeClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock. The channel is buffered, so a receiver that
// gave up never blocks the clock; until it fires it still counts as
// pending for BlockUntil.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.seq++
	c.waiters = append(c.waiters, waiter{at: c.now.Add(d), seq: c.seq, ch: ch})
	c.cond.Broadcast()
	return ch
}

// Advance moves fake time forward by d and fires every channel now due,
// earliest first.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for i := c.earliestLocked(); i >= 0 && !c.waiters[i].at.After(c.now); i = c.earliestLocked() {
		c.fireLocked(i)
	}
}

// Step waits until an After is pending, moves fake time to the earliest
// pending deadline (unless it has passed already) and fires that one
// channel alone; of two equal deadlines the one registered first fires
// first. It reports false, firing nothing, once Stop has been called.
func (c *FakeClock) Step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) == 0 && !c.stopped {
		c.cond.Wait()
	}
	if c.stopped {
		return false
	}
	i := c.earliestLocked()
	if c.waiters[i].at.After(c.now) {
		c.now = c.waiters[i].at
	}
	c.fireLocked(i)
	return true
}

// BlockUntil waits until at least n Afters are pending, or Stop.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n && !c.stopped {
		c.cond.Wait()
	}
}

// Stop makes Step return false and releases BlockUntil; call it once
// whatever drives the clock should end. Pending channels stay unfired.
func (c *FakeClock) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *FakeClock) earliestLocked() int {
	best := -1
	for i, w := range c.waiters {
		if best < 0 || w.at.Before(c.waiters[best].at) || w.at.Equal(c.waiters[best].at) && w.seq < c.waiters[best].seq {
			best = i
		}
	}
	return best
}

func (c *FakeClock) fireLocked(i int) {
	w := c.waiters[i]
	c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
	w.ch <- c.now
	c.cond.Broadcast()
}
