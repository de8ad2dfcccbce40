package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDigestNoFalseNegatives(t *testing.T) {
	d := NewDigest(DefaultDigestBits, DefaultDigestHashes)
	names := make([]string, 500)
	for i := range names {
		names[i] = fmt.Sprintf("seg-%04d-%d", i, i%7)
		d.Add(names[i])
	}
	f, ok := FilterFromBitmap(d.Bitmap(), d.Hashes())
	if !ok {
		t.Fatal("bitmap rejected")
	}
	for _, n := range names {
		if !f.Contains(n) {
			t.Fatalf("filter false negative for %q", n)
		}
	}
}

// TestDigestFalsePositiveRate is the property test against a
// brute-force reference: add n random names to both the digest and a
// plain set, then probe the announced filter with names known absent
// from the set and check the observed FPR tracks the analytic
// (1-e^(-kn/m))^k within slack.
func TestDigestFalsePositiveRate(t *testing.T) {
	const (
		m      = DefaultDigestBits
		k      = DefaultDigestHashes
		n      = 1000
		probes = 20000
	)
	rng := rand.New(rand.NewSource(42))
	d := NewDigest(m, k)
	inSet := make(map[string]bool, n)
	for len(inSet) < n {
		name := fmt.Sprintf("obj-%08x", rng.Uint32())
		if inSet[name] {
			continue
		}
		inSet[name] = true
		d.Add(name)
	}
	f, ok := FilterFromBitmap(d.Bitmap(), k)
	if !ok {
		t.Fatal("bitmap rejected")
	}
	fp := 0
	for i := 0; i < probes; i++ {
		name := fmt.Sprintf("absent-%08x-%d", rng.Uint32(), i)
		if inSet[name] {
			continue
		}
		if f.Contains(name) {
			fp++
		}
	}
	observed := float64(fp) / probes
	expected := math.Pow(1-math.Exp(-float64(k*n)/float64(m)), k)
	if observed > 3*expected+0.01 {
		t.Fatalf("false-positive rate %.4f far above analytic %.4f", observed, expected)
	}
	t.Logf("fpr observed=%.4f analytic=%.4f", observed, expected)
}

func TestClampDigestParams(t *testing.T) {
	cases := []struct {
		bits, k         int
		wantBits, wantK int
	}{
		{0, 0, DefaultDigestBits, DefaultDigestHashes},
		{1, 1, MinDigestBits, 1},
		{100, 3, 128, 3},
		{MaxDigestBits + 1, MaxDigestHashes + 5, MaxDigestBits, MaxDigestHashes},
	}
	for _, c := range cases {
		gb, gk := clampDigestParams(c.bits, c.k)
		if gb != c.wantBits || gk != c.wantK {
			t.Errorf("clamp(%d,%d) = (%d,%d), want (%d,%d)", c.bits, c.k, gb, gk, c.wantBits, c.wantK)
		}
	}
}

func TestFilterFromBitmapRejects(t *testing.T) {
	if _, ok := FilterFromBitmap(nil, 4); ok {
		t.Fatal("accepted empty bitmap")
	}
	if _, ok := FilterFromBitmap(make([]byte, 7), 4); ok {
		t.Fatal("accepted non-word bitmap")
	}
	if _, ok := FilterFromBitmap(make([]byte, 8), 0); ok {
		t.Fatal("accepted k=0")
	}
	if _, ok := FilterFromBitmap(make([]byte, 8), MaxDigestHashes+1); ok {
		t.Fatal("accepted oversized k")
	}
	if _, ok := FilterFromBitmap(make([]byte, MaxDigestBits/8+8), 4); ok {
		t.Fatal("accepted oversized bitmap")
	}
}
