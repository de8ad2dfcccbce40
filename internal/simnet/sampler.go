package simnet

import (
	"math"
	"math/rand"
	"time"
)

// Sampler produces latency samples. Implementations must be pure
// functions of the supplied RNG so simulations stay deterministic.
type Sampler interface {
	Sample(rng *rand.Rand) time.Duration
}

// Constant is a fixed-delay sampler.
type Constant time.Duration

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) time.Duration { return time.Duration(c) }

// String renders the delay.
func (c Constant) String() string { return time.Duration(c).String() }

// Uniform samples uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample implements Sampler.
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// Normal samples from a truncated normal distribution (negative draws
// clamp to zero, draws beyond Mean+4σ clamp to that bound so a single
// unlucky sample cannot distort a whole experiment).
type Normal struct {
	Mean   time.Duration
	Stddev time.Duration
}

// Sample implements Sampler.
func (n Normal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.NormFloat64()*float64(n.Stddev)) + n.Mean
	if d < 0 {
		return 0
	}
	if hi := n.Mean + 4*n.Stddev; d > hi {
		return hi
	}
	return d
}

// LogNormal samples from a log-normal distribution parameterized by
// the *resulting* median and a dimensionless sigma, which is the shape
// observed for wide-area and cellular DNS latency (long right tail).
type LogNormal struct {
	Median time.Duration
	Sigma  float64
	// Max, if non-zero, caps samples (a crude model of client
	// timeouts bounding observed latency).
	Max time.Duration
}

// Sample implements Sampler.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(float64(l.Median) * math.Exp(rng.NormFloat64()*l.Sigma))
	if l.Max > 0 && d > l.Max {
		return l.Max
	}
	return d
}

// Shifted adds a constant offset to another sampler: propagation delay
// plus a variable component.
type Shifted struct {
	Base   time.Duration
	Jitter Sampler
}

// Sample implements Sampler.
func (s Shifted) Sample(rng *rand.Rand) time.Duration {
	d := s.Base
	if s.Jitter != nil {
		d += s.Jitter.Sample(rng)
	}
	return d
}
