// Package keyhash is the one key hash of the repository: FNV-1a
// finished with MurmurHash3's fmix64. The consistent-hash ring places
// content with it, the mesh digest derives its Bloom probes from it,
// and the response cache picks a shard with it. Ring points and digest
// bits are compared between processes (mesh peers test names against
// each other's bitmaps), so the function is pinned by test vectors and
// must never change.
package keyhash

const (
	offset64 uint64 = 14695981039346656037
	prime64  uint64 = 1099511628211
)

// Sum64 hashes key. The loop is written out, not hash/fnv: New64a's
// hasher escapes to the heap, and every caller sits on a query path.
func Sum64[T string | []byte](key T) uint64 {
	h := offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return Mix64(h)
}

// Mix64 is MurmurHash3's 64-bit finalizer. Raw FNV-1a has weak
// high-bit avalanche on inputs that differ only in a short suffix —
// the shape of "<member>#<i>" virtual-node keys and "seg-0042-3"
// content names — which left each ring member's virtual nodes clumped
// in same-member runs of 150+ on the sorted ring and would skew any
// hash-mod-N pick the same way. Finalizing restores uniform mixing.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
