package workload

import (
	"math/rand"
	"testing"
)

func TestZipfCatalogSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewZipfCatalog(rng, 1.2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const n = 50_000
	for i := 0; i < n; i++ {
		idx := z.Next()
		if idx < 0 || idx >= 1000 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	// Rank 0 must dominate; the top 10 objects should cover a large
	// fraction of requests.
	if counts[0] < counts[500] {
		t.Error("rank-0 not more popular than rank-500")
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if share := float64(top10) / n; share < 0.5 {
		t.Errorf("top-10 share = %.2f, want heavy head", share)
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewZipfCatalog(rng, 1.2, 0); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewZipfCatalog(rng, 0.9, 10); err == nil {
		t.Error("skew ≤ 1 accepted")
	}
	if _, err := NewZipfCatalog(rng, 1.0, 10); err == nil {
		t.Error("skew = 1 accepted")
	}
}

func TestNameAndStream(t *testing.T) {
	if Name("obj", 7) != "obj-0007" {
		t.Errorf("Name = %s", Name("obj", 7))
	}
	rng := rand.New(rand.NewSource(3))
	z, err := NewZipfCatalog(rng, 1.3, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if name := Name("vid", z.Next()); len(name) != len("vid-0000") {
			t.Fatalf("bad name %q", name)
		}
	}
}

func TestZipfDeterminism(t *testing.T) {
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		z, _ := NewZipfCatalog(rng, 1.2, 100)
		out := make([]int, 50)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := draw(9), draw(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}
