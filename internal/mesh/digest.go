// Package mesh is the federated multi-MEC cooperation layer: each
// site periodically gossips a bounded digest of its content table and
// a health summary to configured peer sites, and publishes what it
// hears back as an RCU snapshot (View) the C-DNS consults on the miss
// path — "which eligible, non-overloaded peer MEC announced this
// object?" — before escalating to the parent tier.
//
// The announce protocol rides the same datagram plane as the cdn
// content protocol's PING/PONG verbs:
//
//	request:  ANNOUNCE <binary body>   (see wire.go)
//	response: DIGEST <generation> | ERR <reason>
//	request:  PING
//	response: PONG
//
// Announcements are full-state and generation-numbered: every round
// carries the site's complete digest under a monotonically increasing
// generation, and a receiver applies an announce iff its generation
// advances past the last one applied (serial-number arithmetic, so
// u32 wrap is harmless). That is the whole anti-entropy story — a
// missed round converges on the next one, with no per-delta repair
// protocol to get wedged.
//
// Per-peer failure detection folds into internal/health: each peer is
// registered as a registry target and every announce exchange doubles
// as a probe (success promotes, failure demotes through the same
// hysteresis state machine caches use), so a dead peer leaves the
// steering view within DownAfter announce intervals.
package mesh

import (
	"encoding/binary"

	"github.com/meccdn/meccdn/internal/keyhash"
)

// Content digests are Bloom filters: m bits, k probe positions per
// name via double hashing. A site builds a fresh Digest every announce
// round; the wire form is its bitmap, decoded on the receive side into
// the read-only Filter whose Contains is a handful of word reads — the
// shape the lock-free miss path needs. Size is bounded regardless of
// catalog scale; false positives are tolerated by construction, since
// steering to a peer that turns out not to hold the object just falls
// through to that peer's parent tier.

const (
	// MinDigestBits and MaxDigestBits bound the digest bitmap; sizes
	// must be a multiple of 64 so the bitmap packs into whole words.
	MinDigestBits = 64
	MaxDigestBits = 1 << 20

	// DefaultDigestBits is 8192 bits = 1 KiB on the wire. With k=4
	// hashes and n tracked names the false-positive rate is
	// (1-e^(-kn/m))^k: ~2.4% at n=1000, ~0.24‰ at n=250.
	DefaultDigestBits = 8192
	// DefaultDigestHashes is the default probe count k.
	DefaultDigestHashes = 4
	// MaxDigestHashes bounds k on the wire.
	MaxDigestHashes = 8
)

// digestHash derives the double-hashing pair for name: probe i tests
// bit (h1 + i·h2) mod m (Kirsch–Mitzenmacher). h2 is forced odd so it
// is never zero and cycles through power-of-two moduli.
func digestHash(name string) (h1, h2 uint64) {
	h1 = keyhash.Sum64(name)
	h2 = keyhash.Mix64(h1^0x9e3779b97f4a7c15) | 1
	return h1, h2
}

// Digest is the builder side of a content digest: Add sets bits
// directly in the words the Filter it announces will read. Not safe
// for concurrent use, and never consulted on the serve path (receivers
// consult the decoded Filter).
type Digest struct {
	f       Filter
	entries int
}

// NewDigest returns an empty digest with the given bitmap size and
// probe count, clamped to the supported ranges (bits is rounded up to
// a multiple of 64). Zero values select the defaults.
func NewDigest(bits, k int) *Digest {
	bits, k = clampDigestParams(bits, k)
	return &Digest{f: Filter{k: k, words: make([]uint64, bits/64)}}
}

func clampDigestParams(bits, k int) (int, int) {
	if bits <= 0 {
		bits = DefaultDigestBits
	}
	if bits < MinDigestBits {
		bits = MinDigestBits
	}
	if bits > MaxDigestBits {
		bits = MaxDigestBits
	}
	bits = (bits + 63) &^ 63
	if k <= 0 {
		k = DefaultDigestHashes
	}
	if k > MaxDigestHashes {
		k = MaxDigestHashes
	}
	return bits, k
}

// Hashes returns the probe count k.
func (d *Digest) Hashes() int { return d.f.k }

// Entries returns the number of Add calls.
func (d *Digest) Entries() int { return d.entries }

// Add records name.
func (d *Digest) Add(name string) {
	h1, h2 := digestHash(name)
	m := uint64(len(d.f.words)) * 64
	for i := 0; i < d.f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		d.f.words[bit/64] |= 1 << (bit % 64)
	}
	d.entries++
}

// Bitmap returns the wire bitmap: the filter's words little-endian, so
// bit j is bit j%8 of byte j/8.
func (d *Digest) Bitmap() []byte {
	out := make([]byte, 0, len(d.f.words)*8)
	for _, w := range d.f.words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// Filter is the read-only receive-side form of a digest: a packed
// bitset whose Contains does k masked word reads and nothing else.
// A published Filter is immutable, so it is safe to share across the
// lock-free View snapshots without synchronization.
type Filter struct {
	k     int
	words []uint64
}

// FilterFromBitmap builds a Filter from a wire bitmap (len must be a
// non-zero multiple of 8 bytes; k in [1, MaxDigestHashes]). The bitmap
// is copied, so the caller may reuse its buffer.
func FilterFromBitmap(bitmap []byte, k int) (Filter, bool) {
	if len(bitmap) == 0 || len(bitmap)%8 != 0 || len(bitmap)*8 > MaxDigestBits {
		return Filter{}, false
	}
	if k < 1 || k > MaxDigestHashes {
		return Filter{}, false
	}
	words := make([]uint64, len(bitmap)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(bitmap[i*8:])
	}
	return Filter{k: k, words: words}, true
}

// Bits returns the bitmap size m, or 0 for a zero Filter.
func (f Filter) Bits() int { return len(f.words) * 64 }

// Contains reports whether name may be in the announced set.
func (f Filter) Contains(name string) bool {
	h1, h2 := digestHash(name)
	return f.containsHash(h1, h2)
}

// containsHash is the pre-hashed probe loop, shared so a View lookup
// hashes the key once across all peers.
func (f Filter) containsHash(h1, h2 uint64) bool {
	m := uint64(len(f.words)) * 64
	if m == 0 {
		return false
	}
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if f.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
