package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// drain fires events until the queue is empty.
func drain(c *Clock) {
	for c.step() {
	}
}

func TestClockOrdering(t *testing.T) {
	var c Clock
	var fired []int
	c.Schedule(30*time.Millisecond, func() { fired = append(fired, 3) })
	c.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	c.Schedule(20*time.Millisecond, func() { fired = append(fired, 2) })
	drain(&c)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired = %v", fired)
	}
	if c.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockFIFOAtSameInstant(t *testing.T) {
	var c Clock
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Millisecond, func() { fired = append(fired, i) })
	}
	drain(&c)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", fired)
		}
	}
}

func TestClockCancel(t *testing.T) {
	var c Clock
	fired := false
	timer := c.Schedule(time.Second, func() { fired = true })
	timer.Cancel()
	timer.Cancel() // double cancel is fine
	drain(&c)
	if fired {
		t.Error("cancelled event fired")
	}
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
}

func TestClockNegativeDelay(t *testing.T) {
	var c Clock
	fired := false
	c.Schedule(-time.Second, func() { fired = true })
	drain(&c)
	if !fired || c.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, c.Now())
	}
}

func TestClockRunUntil(t *testing.T) {
	var c Clock
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		c.Schedule(d, func() { fired = append(fired, d) })
	}
	c.RunUntil(12 * time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("fired %d events, want 2", len(fired))
	}
	if c.Now() != 12*time.Millisecond {
		t.Errorf("Now = %v, want 12ms", c.Now())
	}
	drain(&c)
	if len(fired) != 4 {
		t.Errorf("after the drain fired %d, want 4", len(fired))
	}
}

func TestClockScheduleAtPast(t *testing.T) {
	var c Clock
	c.Schedule(10*time.Millisecond, func() {
		fired := false
		c.ScheduleAt(time.Millisecond, func() { fired = true })
		c.RunWhile(func() bool { return !fired })
		if c.Now() != 10*time.Millisecond {
			t.Errorf("past event advanced time backwards: %v", c.Now())
		}
	})
	drain(&c)
}

func TestClockNestedScheduling(t *testing.T) {
	var c Clock
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			c.Schedule(time.Millisecond, rec)
		}
	}
	c.Schedule(0, rec)
	drain(&c)
	if depth != 50 {
		t.Errorf("depth = %d", depth)
	}
	if c.Now() != 49*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockReentrantPump(t *testing.T) {
	// A handler-style event pumps the loop waiting for a later event,
	// mimicking a nested synchronous Exchange.
	var c Clock
	innerDone := false
	outerSawInner := false
	c.Schedule(time.Millisecond, func() {
		c.Schedule(5*time.Millisecond, func() { innerDone = true })
		c.RunWhile(func() bool { return !innerDone })
		outerSawInner = innerDone
	})
	drain(&c)
	if !outerSawInner {
		t.Error("nested pump did not observe inner completion")
	}
}

func TestClockPropertyEventTimesMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		var c Clock
		var times []time.Duration
		for _, d := range delays {
			c.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, c.Now())
			})
		}
		drain(&c)
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Constant(5 * time.Millisecond)).Sample(rng); d != 5*time.Millisecond {
		t.Errorf("Constant = %v", d)
	}
	u := Uniform{Min: 2 * time.Millisecond, Max: 4 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := u.Sample(rng); d < u.Min || d > u.Max {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	nrm := Normal{Mean: 10 * time.Millisecond, Stddev: 3 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := nrm.Sample(rng); d < 0 || d > nrm.Mean+4*nrm.Stddev {
			t.Fatalf("Normal out of clamp range: %v", d)
		}
	}
	ln := LogNormal{Median: 20 * time.Millisecond, Sigma: 0.5, Max: 500 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := ln.Sample(rng); d <= 0 || d > ln.Max {
			t.Fatalf("LogNormal out of range: %v", d)
		}
	}
	sh := Shifted{Base: 7 * time.Millisecond, Jitter: Uniform{Max: time.Millisecond}}
	for i := 0; i < 100; i++ {
		if d := sh.Sample(rng); d < 7*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("Shifted out of range: %v", d)
		}
	}
	if d := (Shifted{Base: 3 * time.Millisecond}).Sample(rng); d != 3*time.Millisecond {
		t.Errorf("Shifted nil jitter = %v", d)
	}
}
