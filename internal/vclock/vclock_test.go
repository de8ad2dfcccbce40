package vclock

import (
	"testing"
	"time"
)

func TestFixedClock(t *testing.T) {
	f := &Fixed{}
	if f.Now() != 0 {
		t.Error("fixed clock not zero")
	}
	f.Time += time.Second
	f.Time += 500 * time.Millisecond
	if f.Now() != 1500*time.Millisecond {
		t.Errorf("now = %v", f.Now())
	}
}

func TestRealClockMonotone(t *testing.T) {
	r := NewReal()
	a := r.Now()
	b := r.Now()
	if b < a {
		t.Error("real clock went backwards")
	}
	if a > time.Second {
		t.Errorf("fresh clock already at %v", a)
	}
}

func TestClockInterface(t *testing.T) {
	var _ Clock = &Fixed{}
	var _ Clock = NewReal()
}
