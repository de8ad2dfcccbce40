package mesh

import (
	"math"
	"net/netip"
	"sync/atomic"
	"time"
)

// peerCell is one peer's decayed steering-load counter, cache-line
// padded like the hash ring's load cells, beside the peer's health
// target rendered once. Cells are allocated once per peer and shared
// by every view revision that includes the peer, so counts survive
// republishes.
type peerCell struct {
	n      atomic.Int64
	target string // peerTarget(name)
	_      [40]byte
}

// peerEntry is one peer's slot in an immutable view revision. The
// filter and all scalar fields are never written after publish; the
// cell's atomic counter is the one deliberately shared part.
type peerEntry struct {
	name    string
	addr    netip.Addr // steering target (peer C-DNS); may be invalid
	filter  Filter
	gen     uint32
	entries int
	load    float64       // peer's self-reported ingress load
	updated time.Duration // agent clock at last applied announce
	ok      bool          // eligible at publish time (health + freshness + load + addr)
	ewma    time.Duration // health EWMA latency at publish, for ordering
	cell    *peerCell
}

// viewState is one immutable revision of the peer table, ordered best
// first: eligible peers before ineligible, then by health rank, then
// EWMA latency, then name for determinism.
type viewState struct {
	peers []peerEntry
}

var emptyViewState = &viewState{}

// PeerHit identifies the peer a miss was steered to.
type PeerHit struct {
	// Name is the peer site's name.
	Name string
	// Target is "peer:"+Name, the peer's health-registry target and the
	// note on a steered query's router hop, rendered once per peer.
	Target string
	// Addr is the peer's announced steering address (its C-DNS); the
	// router answers with a referral to it.
	Addr netip.Addr
}

// View is the published peer table: an RCU snapshot behind an atomic
// pointer, exactly the PR-8 read-plane shape. The serve path loads
// the snapshot once and walks a handful of peers; the owning Agent is
// the only writer. All read methods are lock-free and allocation-free.
type View struct {
	state atomic.Pointer[viewState]

	// total mirrors the sum of the current peers' cells, so the cap
	// check reads one counter.
	total atomic.Int64

	hits       atomic.Uint64 // miss-path lookups answered by a peer
	misses     atomic.Uint64 // miss-path lookups no peer could take
	capRejects atomic.Uint64 // peers skipped because their cell was at cap
}

// snapshot returns the current revision, never nil.
func (v *View) snapshot() *viewState {
	if s := v.state.Load(); s != nil {
		return s
	}
	return emptyViewState
}

// capacity is the bounded-load cap over peers, the same
// ⌈c·(total+1)/n⌉ bound the hash ring uses.
func capacity(c float64, total int64, n int) int64 {
	if n == 0 {
		return 0
	}
	return int64(math.Ceil(c * float64(total+1) / float64(n)))
}

// Lookup returns the best eligible, non-overloaded peer that
// announced key: peers are walked in health order (rank, then EWMA),
// the key is hashed once, and each candidate costs k word reads on
// its filter plus one atomic load on its bounded-load cell. Lock-free:
// one atomic snapshot load, zero allocations.
func (v *View) Lookup(key string) (PeerHit, bool) {
	s := v.snapshot()
	if len(s.peers) == 0 {
		return PeerHit{}, false
	}
	h1, h2 := digestHash(key)
	capLoad := capacity(loadFactor, v.total.Load(), len(s.peers))
	for i := range s.peers {
		p := &s.peers[i]
		if !p.ok {
			// Entries are ordered eligible-first, so the first
			// ineligible peer ends the walk.
			break
		}
		if !p.filter.containsHash(h1, h2) {
			continue
		}
		if p.cell.n.Load() >= capLoad {
			v.capRejects.Add(1)
			continue
		}
		return PeerHit{Name: p.name, Target: p.cell.target, Addr: p.addr}, true
	}
	return PeerHit{}, false
}

// Steer is the miss-path entry point: Lookup plus accounting — a hit
// charges the chosen peer's bounded-load cell and the peer-hit
// counter, a miss the peer-miss counter. Same lock-free guarantees as
// Lookup.
func (v *View) Steer(key string) (PeerHit, bool) {
	hit, ok := v.Lookup(key)
	if !ok {
		v.misses.Add(1)
		return PeerHit{}, false
	}
	v.hits.Add(1)
	v.recordLoad(hit.Name)
	return hit, true
}

// Nearest returns the healthiest eligible peer regardless of content
// — the fallback target when the LPM-mapped PoP is down. Lock-free.
func (v *View) Nearest() (PeerHit, bool) {
	s := v.snapshot()
	if len(s.peers) == 0 || !s.peers[0].ok {
		return PeerHit{}, false
	}
	p := &s.peers[0]
	return PeerHit{Name: p.name, Target: p.cell.target, Addr: p.addr}, true
}

// recordLoad charges one steered miss to the named peer's cell.
func (v *View) recordLoad(name string) {
	s := v.snapshot()
	for i := range s.peers {
		if s.peers[i].name == name {
			s.peers[i].cell.n.Add(1)
			v.total.Add(1)
			return
		}
	}
}

// Load returns name's current steering-load count (0 when unknown).
func (v *View) Load(name string) int64 {
	s := v.snapshot()
	for i := range s.peers {
		if s.peers[i].name == name {
			return s.peers[i].cell.n.Load()
		}
	}
	return 0
}

// Peers returns how many peers the current revision holds, eligible
// or not.
func (v *View) Peers() int { return len(v.snapshot().peers) }

// EligiblePeers returns how many peers are currently steerable.
func (v *View) EligiblePeers() int {
	s := v.snapshot()
	n := 0
	for i := range s.peers {
		if s.peers[i].ok {
			n++
		}
	}
	return n
}

// PeerHits returns the number of miss-path lookups a peer absorbed.
func (v *View) PeerHits() uint64 { return v.hits.Load() }

// PeerMisses returns the number of miss-path lookups no peer could
// take (nothing announced the key, or every announcer was capped).
func (v *View) PeerMisses() uint64 { return v.misses.Load() }

// CapRejections returns how many announcing peers were skipped at cap.
func (v *View) CapRejections() uint64 { return v.capRejects.Load() }
