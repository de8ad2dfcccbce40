// Package simnet is a deterministic discrete-event network simulator.
//
// It provides a virtual clock with an event queue, nodes joined by
// links with configurable delay, jitter, and loss, multi-hop routing
// with per-hop observation taps (the simulated analogue of running
// tcpdump at the P-GW), and a synchronous datagram Exchange facade so
// request/response protocols such as DNS can be written in ordinary
// sequential style while still executing entirely in virtual time.
//
// All randomness flows from a single seeded source, so a simulation
// with the same seed replays identically. Time never advances unless
// an event fires; a full experiment of thousands of queries runs in
// microseconds of wall-clock time.
package simnet

import (
	"container/heap"
	"time"
)

// Clock is a virtual clock driving a discrete-event simulation.
// The zero value is ready to use and starts at time zero.
type Clock struct {
	now     time.Duration
	queue   eventHeap
	nextSeq uint64
}

// event is a scheduled callback.
type event struct {
	at        time.Duration
	seq       uint64 // FIFO tie-break for equal times
	fn        func()
	cancelled bool
	index     int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle to a scheduled event.
type Timer struct {
	e *event
}

// Cancel prevents the event from firing. Cancelling an already-fired
// or already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.e != nil {
		t.e.cancelled = true
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Schedule arranges for fn to run after d of virtual time. A negative
// d is treated as zero. Events at the same instant fire in the order
// they were scheduled.
func (c *Clock) Schedule(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.now+d, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time t.
// A t in the past fires at the current instant.
func (c *Clock) ScheduleAt(t time.Duration, fn func()) *Timer {
	if t < c.now {
		t = c.now
	}
	e := &event{at: t, seq: c.nextSeq, fn: fn}
	c.nextSeq++
	heap.Push(&c.queue, e)
	return &Timer{e: e}
}

// step fires the earliest pending event and reports whether one fired.
func (c *Clock) step() bool {
	for c.queue.Len() > 0 {
		e := heap.Pop(&c.queue).(*event)
		if e.cancelled {
			continue
		}
		c.now = e.at
		e.fn()
		return true
	}
	return false
}

// RunUntil fires events with times ≤ t, then advances the clock to t.
func (c *Clock) RunUntil(t time.Duration) {
	for c.queue.Len() > 0 {
		if next := c.peekTime(); next > t {
			break
		}
		c.step()
	}
	if c.now < t {
		c.now = t
	}
}

// RunWhile fires events until cond returns false or the queue drains.
// It is the reentrant pump underlying synchronous Exchange: handlers
// running inside an event may themselves call RunWhile.
func (c *Clock) RunWhile(cond func() bool) {
	for cond() && c.step() {
	}
}

func (c *Clock) peekTime() time.Duration {
	// Skip over cancelled heads without firing anything.
	for c.queue.Len() > 0 && c.queue[0].cancelled {
		heap.Pop(&c.queue)
	}
	if c.queue.Len() == 0 {
		return c.now
	}
	return c.queue[0].at
}
