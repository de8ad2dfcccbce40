// Package workload generates synthetic request streams with
// Zipf-skewed content popularity (the standard CDN access model), used
// by the cache-disaggregation and load-shed experiments.
package workload

import (
	"fmt"
	"math/rand"
)

// ZipfCatalog draws content indices from a Zipf distribution over a
// catalog of n objects: rank-1 content is requested most.
type ZipfCatalog struct {
	zipf *rand.Zipf
}

// NewZipfCatalog creates a generator over n objects with skew s
// (s > 1; CDN traces typically fit s ≈ 1.1–1.3).
func NewZipfCatalog(rng *rand.Rand, s float64, n int) (*ZipfCatalog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: catalog size %d", n)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf skew must exceed 1, got %v", s)
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("workload: bad zipf parameters s=%v n=%d", s, n)
	}
	return &ZipfCatalog{zipf: z}, nil
}

// Next returns the next content index in [0, n).
func (z *ZipfCatalog) Next() int { return int(z.zipf.Uint64()) }

// Name renders index i as a content name with the given prefix,
// matching cdn.Catalog.PublishN naming.
func Name(prefix string, i int) string { return fmt.Sprintf("%s-%04d", prefix, i) }
