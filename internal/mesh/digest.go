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

import "github.com/meccdn/meccdn/internal/keyhash"

// Content digests are counting-Bloom filters: m counters, k probe
// positions per name via double hashing. The counting form (Digest)
// supports incremental Add/Remove so a caller may maintain one
// alongside its cache; the wire form is the flattened bitmap
// (counter > 0 → bit set), decoded on the receive side into the
// read-only Filter whose Contains is a handful of word reads — the
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

// Digest is a counting Bloom filter over content names. It is the
// builder side: not safe for concurrent use, and never consulted on
// the serve path (receivers consult the flattened Filter).
type Digest struct {
	k        int
	counters []uint8
	entries  int
}

// NewDigest returns a counting digest with the given bitmap size and
// probe count, clamped to the supported ranges (bits is rounded up to
// a multiple of 64). Zero values select the defaults.
func NewDigest(bits, k int) *Digest {
	bits, k = clampDigestParams(bits, k)
	return &Digest{k: k, counters: make([]uint8, bits)}
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

// Bits returns the bitmap size m.
func (d *Digest) Bits() int { return len(d.counters) }

// Hashes returns the probe count k.
func (d *Digest) Hashes() int { return d.k }

// Entries returns the number of Add calls net of Removes.
func (d *Digest) Entries() int { return d.entries }

// Add records name. Counters saturate at 255 and, once saturated,
// never decrement (the standard counting-Bloom overflow rule: a stuck
// bit is a false positive, which the protocol tolerates; a wrongly
// cleared bit would be a false negative, which it does not).
func (d *Digest) Add(name string) {
	h1, h2 := digestHash(name)
	m := uint64(len(d.counters))
	for i := 0; i < d.k; i++ {
		c := &d.counters[(h1+uint64(i)*h2)%m]
		if *c < 255 {
			*c++
		}
	}
	d.entries++
}

// Remove erases one prior Add of name. Removing a name that was never
// added corrupts the filter (as with any counting Bloom); callers own
// that invariant.
func (d *Digest) Remove(name string) {
	h1, h2 := digestHash(name)
	m := uint64(len(d.counters))
	for i := 0; i < d.k; i++ {
		c := &d.counters[(h1+uint64(i)*h2)%m]
		if *c > 0 && *c < 255 {
			*c--
		}
	}
	if d.entries > 0 {
		d.entries--
	}
}

// Contains reports whether name may have been added (false positives
// possible, false negatives not).
func (d *Digest) Contains(name string) bool {
	h1, h2 := digestHash(name)
	m := uint64(len(d.counters))
	for i := 0; i < d.k; i++ {
		if d.counters[(h1+uint64(i)*h2)%m] == 0 {
			return false
		}
	}
	return true
}

// Reset clears every counter, keeping the configured size.
func (d *Digest) Reset() {
	for i := range d.counters {
		d.counters[i] = 0
	}
	d.entries = 0
}

// Bitmap flattens the counters into the wire bitmap: bit j set iff
// counter j > 0, packed little-endian into len/8 bytes.
func (d *Digest) Bitmap() []byte {
	out := make([]byte, len(d.counters)/8)
	for i, c := range d.counters {
		if c > 0 {
			out[i/8] |= 1 << (i % 8)
		}
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
		off := i * 8
		words[i] = uint64(bitmap[off]) | uint64(bitmap[off+1])<<8 |
			uint64(bitmap[off+2])<<16 | uint64(bitmap[off+3])<<24 |
			uint64(bitmap[off+4])<<32 | uint64(bitmap[off+5])<<40 |
			uint64(bitmap[off+6])<<48 | uint64(bitmap[off+7])<<56
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
