// Package vclock abstracts "time since the world started" so the same
// DNS and CDN code runs against the wall clock in real deployments and
// against simnet's virtual clock in experiments.
package vclock

import "time"

// Clock reports elapsed time since an arbitrary fixed origin. Both
// *simnet.Clock and Real satisfy it.
type Clock interface {
	Now() time.Duration
}

// Real is a wall clock measuring time since its creation.
type Real struct {
	start time.Time
}

// NewReal returns a wall clock anchored at the current instant.
func NewReal() *Real { return &Real{start: time.Now()} }

// Now implements Clock.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Fixed is a clock that reads Time; tests advance it by adding to Time.
type Fixed struct {
	Time time.Duration
}

// Now implements Clock.
func (f *Fixed) Now() time.Duration { return f.Time }
