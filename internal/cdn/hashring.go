package cdn

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/meccdn/meccdn/internal/keyhash"
)

// loadCell is one member's decayed load counter. Cells are allocated
// once per member and shared by every ring revision that includes the
// member, so counts survive Add/Remove rebuilds; the padding keeps
// two members' hot counters off one cache line.
type loadCell struct {
	n atomic.Int64
	_ [56]byte
}

// ringState is one immutable revision of the ring: the sorted virtual
// node points, the sorted member list, and the members' load cells.
// Published via atomic pointer so the per-query owner walk never
// locks; the slices in a published state are never written again
// (the cells' atomic counters are the one deliberately shared part).
type ringState struct {
	ring    []ringPoint
	members []string    // sorted
	cells   []*loadCell // parallel to members
}

var emptyRingState = &ringState{}

// index returns member's position in the sorted member list, or -1.
func (s *ringState) index(member string) int {
	i := sort.SearchStrings(s.members, member)
	if i < len(s.members) && s.members[i] == member {
		return i
	}
	return -1
}

// totalLoad sums the members' load cells.
func (s *ringState) totalLoad() int64 {
	var total int64
	for _, c := range s.cells {
		total += c.n.Load()
	}
	return total
}

// capacity is the bounded-load cap: ⌈c·(total+1)/members⌉, the
// "consistent hashing with bounded loads" bound. The +1 counts the
// assignment being placed, so a lookup on an idle ring always has
// capacity, and with c > 1 at least one member is always under the
// cap (all members at the cap would need total ≥ c·(total+1)).
func (s *ringState) capacity(c float64, total int64) int64 {
	return int64(math.Ceil(c * float64(total+1) / float64(len(s.members))))
}

// HashRing is a consistent-hash ring assigning content names to cache
// servers, the placement scheme CDNs use so that adding or removing a
// server reshuffles only ~1/N of the content (contrast with modulo
// placement, benchmarked in the ablations).
//
// With Bounded set the ring implements consistent hashing with
// bounded loads: each member is capped at loadFactor× the mean load,
// and a lookup whose ring owner is saturated spills deterministically
// to the next owner with spare capacity. Load is whatever the caller
// records via RecordLoad — the C-DNS router records one unit per
// routing decision — and is decayed over time (DecayLoads), so the
// cap tracks a recent-traffic window rather than all of history.
type HashRing struct {
	// replicas is the number of virtual nodes per server; higher
	// values smooth the distribution. Zero means 256; tests set it.
	replicas int
	// Bounded switches Owners/OwnersAppend to the bounded-load walk.
	Bounded bool
	// loadFactor is the bounded-load factor c: no member may hold
	// more than ⌈c · mean load⌉. Values ≤ 1 (including zero) mean
	// 1.25; tests set others. Read when Bounded is set.
	loadFactor float64

	state atomic.Pointer[ringState]
	// wmu serializes Add/Remove; OwnersAppend/Members never take it.
	wmu sync.Mutex
	// cells maps every member ever seen to its load cell, so a member
	// that leaves and rejoins (health flap) keeps its decayed load.
	// Writer-owned: only Add/Remove under wmu touch the map.
	cells map[string]*loadCell

	// total mirrors the sum of the current members' load cells so the
	// bounded lookup reads one counter instead of summing every cell.
	// RecordLoad bumps it; rebuilds and decays recompute it. Slightly
	// stale under concurrency, like the cells themselves.
	total atomic.Int64

	// spills counts lookups whose hash-primary owner was saturated;
	// capRejections counts every saturated virtual node skipped during
	// spill walks (one lookup can reject several).
	spills        atomic.Uint64
	capRejections atomic.Uint64
}

type ringPoint struct {
	hash uint64
	idx  int32 // into ringState.members / cells
}

// NewHashRing returns an empty ring.
func NewHashRing() *HashRing {
	return &HashRing{}
}

// snapshot returns the current ring revision, never nil.
func (r *HashRing) snapshot() *ringState {
	if s := r.state.Load(); s != nil {
		return s
	}
	return emptyRingState
}

// loadFactor returns the effective bounded-load factor.
func (r *HashRing) factor() float64 {
	if c := r.loadFactor; c > 1 {
		return c
	}
	return 1.25
}

// rebuild publishes a new revision over members (will be sorted in
// place). Callers must hold r.wmu. Existing members keep their load
// cells across the rebuild.
func (r *HashRing) rebuild(members []string) {
	sort.Strings(members)
	if r.cells == nil {
		r.cells = make(map[string]*loadCell)
	}
	cells := make([]*loadCell, len(members))
	for i, m := range members {
		cell := r.cells[m]
		if cell == nil {
			cell = &loadCell{}
			r.cells[m] = cell
		}
		cells[i] = cell
	}
	replicas := r.replicas
	if replicas <= 0 {
		replicas = 256
	}
	ring := make([]ringPoint, 0, len(members)*replicas)
	var scratch [64]byte // stack scratch for "<member>#<i>" virtual-node keys
	for i, m := range members {
		buf := scratch[:0]
		if len(m)+12 > len(scratch) {
			buf = make([]byte, 0, len(m)+12)
		}
		buf = append(buf, m...)
		buf = append(buf, '#')
		base := len(buf)
		for v := 0; v < replicas; v++ {
			buf = strconv.AppendInt(buf[:base], int64(v), 10)
			ring = append(ring, ringPoint{hash: keyhash.Sum64(buf), idx: int32(i)})
		}
	}
	// Ties on hash go to the lower member index, so the order is total.
	slices.SortFunc(ring, func(a, b ringPoint) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.idx, b.idx))
	})
	next := &ringState{ring: ring, members: members, cells: cells}
	r.state.Store(next)
	r.total.Store(next.totalLoad())
}

// Add inserts a member (idempotent).
func (r *HashRing) Add(member string) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	old := r.snapshot()
	if old.index(member) >= 0 {
		return
	}
	members := make([]string, 0, len(old.members)+1)
	members = append(members, old.members...)
	members = append(members, member)
	r.rebuild(members)
}

// Remove deletes a member and all its virtual nodes. Its load cell is
// retained so a flapping member re-enters with its decayed load
// rather than appearing idle; the remaining members' cap relaxes
// immediately since the mean is computed over current members only.
func (r *HashRing) Remove(member string) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	old := r.snapshot()
	if old.index(member) < 0 {
		return
	}
	members := make([]string, 0, len(old.members))
	for _, m := range old.members {
		if m != member {
			members = append(members, m)
		}
	}
	r.rebuild(members)
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *HashRing) Owner(key string) string {
	var buf [1]string
	owners := r.OwnersAppend(buf[:0], key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// OwnersAppend appends up to n distinct owners for key to dst, in
// ring order (the primary first, then the replicas that take over if
// predecessors fail), and returns the extended slice. With a
// caller-provided backing array (and n within smallOwners) it performs
// zero heap allocations. With Bounded set the first owner is
// the first member along the ring with spare capacity; the remaining
// candidates follow in ring-walk order.
func (r *HashRing) OwnersAppend(dst []string, key string, n int) []string {
	s := r.snapshot()
	if len(s.ring) == 0 || n <= 0 {
		return dst
	}
	if n > len(s.members) {
		n = len(s.members)
	}
	return r.ownersAppend(s, dst, key, n)
}

// smallOwners bounds the stack-array dedupe: candidate counts the
// router asks for (Replicas, default 2) stay far below it. Walks
// needing more distinct members than this fall back to a heap map.
const smallOwners = 16

// ownersAppend is the shared owner walk over one snapshot. Callers
// guarantee a non-empty ring and 1 ≤ n ≤ len(s.members).
func (r *HashRing) ownersAppend(s *ringState, dst []string, key string, n int) []string {
	h := keyhash.Sum64(key)
	i := sort.Search(len(s.ring), func(i int) bool { return s.ring[i].hash >= h })
	nm := len(s.members)

	// next yields distinct member indices in ring-walk order. The
	// dedupe set is a stack array scanned linearly for the usual small
	// member counts; only rings wider than smallOwners pay for a map.
	var seenArr [smallOwners]int32
	seenSmall := seenArr[:0]
	var seenBig map[int32]bool
	if nm > smallOwners {
		seenBig = make(map[int32]bool, nm)
	}
	found := 0
	next := func() int32 {
		for {
			p := s.ring[i%len(s.ring)]
			i++
			if seenBig != nil {
				if seenBig[p.idx] {
					continue
				}
				seenBig[p.idx] = true
			} else {
				dup := false
				for _, idx := range seenSmall {
					if idx == p.idx {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				seenSmall = append(seenSmall, p.idx)
			}
			found++
			return p.idx
		}
	}

	if !r.Bounded {
		for k := 0; k < n; k++ {
			dst = append(dst, s.members[next()])
		}
		return dst
	}

	// Bounded-load spill: the owner is the member of the first ring
	// point past the key's hash whose load (plus this assignment)
	// fits under the cap. The spill search walks raw virtual nodes —
	// no dedupe — because re-checking a saturated member via another
	// of its virtual nodes is one atomic load, far cheaper than
	// distinct-member tracking on every lookup; with c > 1 some
	// member is always under the cap, so the walk terminates (the
	// len(ring) bound only backstops a torn concurrent total).
	capLoad := s.capacity(r.factor(), r.total.Load())
	owner := s.ring[i%len(s.ring)].idx
	spilled := false
	rejects := uint64(0)
	for steps := 0; steps < len(s.ring); steps++ {
		idx := s.ring[(i+steps)%len(s.ring)].idx
		if s.cells[idx].n.Load() < capLoad {
			owner = idx
			spilled = steps > 0
			break
		}
		rejects++
	}
	if rejects > 0 {
		r.capRejections.Add(rejects)
	}
	if spilled {
		r.spills.Add(1)
	}
	dst = append(dst, s.members[owner])
	// The failover candidates after the owner are the distinct
	// members in ring order from the key's hash point, skipping the
	// owner — the saturated members the walk spilled past come first,
	// as they remain the nearest replicas on the ring.
	for emitted := 1; emitted < n && found < nm; {
		idx := next()
		if idx == owner {
			continue
		}
		dst = append(dst, s.members[idx])
		emitted++
	}
	return dst
}

// RecordLoad adds one unit of load to member's cell. Lock-free; a
// member not in the current revision is ignored (its cell may still
// exist writer-side, but unrouted members accrue no load).
func (r *HashRing) RecordLoad(member string) {
	s := r.snapshot()
	if i := s.index(member); i >= 0 {
		s.cells[i].n.Add(1)
		r.total.Add(1)
	}
}

// DecayLoads multiplies every member's load by factor (clamped to
// [0,1]), implementing the time decay that turns the counters into a
// recent-load window. The caller picks the cadence; the one caller is
// the X8 experiment's tick loop, and dnsd's ring is never decayed.
// Every cell ever seen decays — including members currently off the
// ring, so a flapping member's load fades while it is out. Concurrent
// RecordLoads may interleave with the decay; the counters are
// deliberately approximate.
func (r *HashRing) DecayLoads(factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	for _, c := range r.cells {
		c.n.Store(int64(float64(c.n.Load()) * factor))
	}
	r.total.Store(r.snapshot().totalLoad())
}

// Load returns member's current load count (0 for unknown members).
func (r *HashRing) Load(member string) int64 {
	s := r.snapshot()
	if i := s.index(member); i >= 0 {
		return s.cells[i].n.Load()
	}
	return 0
}

// LoadStats returns the max and mean member load of the current
// revision. Mean is 0 on an empty ring.
func (r *HashRing) LoadStats() (max int64, mean float64) {
	s := r.snapshot()
	if len(s.members) == 0 {
		return 0, 0
	}
	var total int64
	for _, c := range s.cells {
		n := c.n.Load()
		total += n
		if n > max {
			max = n
		}
	}
	return max, float64(total) / float64(len(s.members))
}

// LoadSpread returns max/mean member load — 1.0 is perfectly even; a
// bounded ring keeps this ≤ loadFactor (plus rounding). Returns 0
// when the ring is empty or idle.
func (r *HashRing) LoadSpread() float64 {
	max, mean := r.LoadStats()
	if mean <= 0 {
		return 0
	}
	return float64(max) / mean
}

// Spills returns the number of lookups that spilled past a saturated
// hash-primary owner.
func (r *HashRing) Spills() uint64 { return r.spills.Load() }

// CapRejections returns the number of saturated members skipped
// during spill walks.
func (r *HashRing) CapRejections() uint64 { return r.capRejections.Load() }

// NumMembers returns the current member count.
func (r *HashRing) NumMembers() int { return len(r.snapshot().members) }

// Members returns the current members, sorted.
func (r *HashRing) Members() []string {
	s := r.snapshot()
	out := make([]string, len(s.members))
	copy(out, s.members)
	return out
}
