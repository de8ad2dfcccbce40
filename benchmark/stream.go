package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// answerKind says what the oracle expects of a reply.
type answerKind uint8

const (
	// kindZone: one A record with the zone's address.
	kindZone answerKind = iota
	// kindRoute: the subnet table matched; the A record is the PoP's
	// address and the echoed ECS option carries the matched length.
	kindRoute
	// kindRing: the subnet is outside the table, so the router fell
	// through to ring → policy → mesh. The answer is one of the cache
	// servers' addresses at scope 0, or a cdns-next-tier referral to a
	// mesh peer when a digest probe was a false positive.
	kindRing
)

// stream is one workload's pre-packed queries and the oracle for each.
// Templates are the distinct datagrams; seq is the order they are sent
// in. The client patches only the ID, so the program under test sees
// exactly these bytes.
type stream struct {
	buf   []byte
	off   []uint32 // template t is buf[off[t]:off[t+1]]
	qlen  []uint8  // length of t's question section
	kind  []answerKind
	addr  [][4]byte // expected A rdata (kindZone, kindRoute)
	scope []uint8   // expected ECS scope (kindRoute)
	seq   []uint32  // nil: every template once, in order

	// prime: warm-up first sends every template once, so a workload
	// whose working set fits the cache starts with all of it cached.
	prime bool
	// warm is how many positions of seq the warm-up then plays; the
	// measured phase continues from there.
	warm int
}

func (s *stream) templates() int { return len(s.kind) }

func (s *stream) length() int {
	if s.seq == nil {
		return s.templates()
	}
	return len(s.seq)
}

// at returns the template sent at position pos, wrapping at the end.
func (s *stream) at(pos int) uint32 {
	pos %= s.length()
	if s.seq == nil {
		return uint32(pos)
	}
	return s.seq[pos]
}

func (s *stream) query(t uint32) []byte { return s.buf[s.off[t]:s.off[t+1]] }

func (s *stream) question(t uint32) []byte {
	q := s.query(t)
	return q[12 : 12+int(s.qlen[t])]
}

const ednsPayload = 1232

// appendQuery packs an A query for name (lower case, dot-terminated)
// with ID 0 and RD set, optionally with an OPT record advertising
// ednsPayload and, inside it, an ECS option disclosing ecs/24. It
// produces the bytes Message.Pack does, without the allocations: the
// largest stream holds 600 000 queries and is built during set-up.
func appendQuery(b []byte, name []byte, edns bool, ecs *[4]byte) []byte {
	ar := byte(0)
	if edns {
		ar = 1
	}
	b = append(b, 0, 0, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, ar)
	for len(name) > 0 {
		i := bytes.IndexByte(name, '.')
		b = append(b, byte(i))
		b = append(b, name[:i]...)
		name = name[i+1:]
	}
	b = append(b, 0, 0, 1, 0, 1) // root label, TYPE A, CLASS IN
	if !edns {
		return b
	}
	b = append(b, 0, 0, 41, ednsPayload>>8, ednsPayload&0xFF, 0, 0, 0, 0)
	if ecs == nil {
		return append(b, 0, 0)
	}
	// RDLEN 11: option 8, length 7, family 1, source 24, scope 0, 3 octets.
	return append(b, 0, 11, 0, 8, 0, 7, 0, 1, 24, 0, ecs[0], ecs[1], ecs[2])
}

func (s *stream) add(name []byte, edns bool, ecs *[4]byte, kind answerKind, addr [4]byte, scope uint8) {
	s.off = append(s.off, uint32(len(s.buf)))
	s.buf = appendQuery(s.buf, name, edns, ecs)
	s.qlen = append(s.qlen, uint8(len(name)+1+4))
	s.kind = append(s.kind, kind)
	s.addr = append(s.addr, addr)
	s.scope = append(s.scope, scope)
}

// seal closes the offset table; call once after the last add.
func (s *stream) seal() { s.off = append(s.off, uint32(len(s.buf))) }

// addRouted adds an ECS query for name from subnet n of the table.
func (s *stream) addRouted(name []byte, n uint32) {
	ecs := subnetAddr(n)
	addr, scope := routeAnswer(n)
	s.add(name, true, &ecs, kindRoute, addr, scope)
}

const (
	seqLen       = 1 << 20 // drawn positions; the client wraps past the end
	zipfExponent = 1.1
)

// zipfOver draws ranks in [0,n) with exponent 1.1 and maps them
// through a seed-drawn permutation, so which names are hot depends on
// the seed.
func zipfOver(rng *rand.Rand, n int) func() int {
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(n-1))
	return func() int { return perm[z.Uint64()] }
}

// subnetsWhere draws count distinct subnets of the table for which
// want(n) holds, no two in the same /16.
func subnetsWhere(rng *rand.Rand, count int, want func(uint32) bool) []uint32 {
	var out []uint32
	seen := make(map[uint32]bool)
	for len(out) < count {
		n := uint32(rng.Intn(1 << subnetBits))
		if !want(n) || seen[n>>8] {
			continue
		}
		seen[n>>8] = true
		out = append(out, n)
	}
	return out
}

func nameOf(label string, i int, zone string) []byte {
	return []byte(label + "-" + strconv.Itoa(i) + "." + zone)
}

func genHitPlain(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{prime: true, warm: 30_000}
	for i := 0; i < svcCount; i++ {
		s.add(nameOf("svc", i, mecZone), false, nil, kindZone, svcAddr(i), 0)
	}
	s.seal()
	draw := zipfOver(rng, svcCount)
	s.seq = make([]uint32, seqLen)
	for i := range s.seq {
		s.seq[i] = uint32(draw())
	}
	return s
}

const (
	hitECSNames   = 64
	hitECSSubnets = 32
)

func genHitECS(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{prime: true, warm: 30_000}
	subnets := subnetsWhere(rng, hitECSSubnets, hasRoute24)
	for i := 0; i < hitECSNames; i++ {
		for _, n := range subnets {
			s.addRouted(nameOf("obj", i, cdnDomain), n)
		}
	}
	s.seal()
	s.seq = make([]uint32, seqLen)
	for i := range s.seq {
		s.seq[i] = uint32(rng.Intn(s.templates()))
	}
	return s
}

// routeMissNames is how many never-repeated names a run can consume:
// warm-up plus 20 s at well over the 17 k queries/s the path sustains.
// Should a faster program exhaust them the client wraps, which is
// still a miss: the cache holds the last 4096 names, not the first.
const routeMissNames = 600_000

func genRouteMiss(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	// Two cache-fulls of warm-up, so eviction is in steady state.
	s := &stream{warm: 2 * cacheEntries}
	s.buf = make([]byte, 0, routeMissNames*64)
	name := []byte("obj-" + strconv.FormatInt(seed, 10) + "-0000000." + cdnDomain)
	digits := name[len(name)-len(cdnDomain)-8 : len(name)-len(cdnDomain)-1]
	for i := 0; i < routeMissNames; i++ {
		for d, v := len(digits)-1, i; d >= 0; d, v = d-1, v/10 {
			digits[d] = byte('0' + v%10)
		}
		if rng.Intn(4) == 0 {
			ecs := [4]byte{198, 18, byte(rng.Intn(256)), 0}
			s.add(name, true, &ecs, kindRing, [4]byte{}, 0)
		} else {
			s.addRouted(name, uint32(rng.Intn(1<<subnetBits)))
		}
	}
	s.seal()
	return s
}

const (
	mixObjects = 20_000
	mixSubnets = 4
)

func genZipfMix(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{warm: 50_000}
	// Two subnets with a /24 row and two that only a /16 row covers, so
	// both scopes reach the cache's scope ladder.
	subnets := append(subnetsWhere(rng, mixSubnets/2, hasRoute24),
		subnetsWhere(rng, mixSubnets/2, func(n uint32) bool { return !hasRoute24(n) })...)
	for i := 0; i < mixObjects; i++ {
		for _, n := range subnets {
			s.addRouted(nameOf("obj", i, cdnDomain), n)
		}
	}
	svcOPT := uint32(s.templates())
	for i := 0; i < svcCount; i++ {
		s.add(nameOf("svc", i, mecZone), true, nil, kindZone, svcAddr(i), 0)
	}
	svcPlain := uint32(s.templates())
	for i := 0; i < svcCount; i++ {
		s.add(nameOf("svc", i, mecZone), false, nil, kindZone, svcAddr(i), 0)
	}
	host := uint32(s.templates())
	for i := 0; i < hostCount; i++ {
		s.add(nameOf("host", i, providerZone), true, nil, kindZone, hostAddr(i), 0)
	}
	s.seal()
	obj, svc := zipfOver(rng, mixObjects), zipfOver(rng, svcCount)
	s.seq = make([]uint32, seqLen)
	for i := range s.seq {
		switch p := rng.Intn(100); {
		case p < 60:
			s.seq[i] = uint32(obj()*mixSubnets + rng.Intn(mixSubnets))
		case p < 85:
			s.seq[i] = svcOPT + uint32(svc())
		case p < 95:
			s.seq[i] = svcPlain + uint32(svc())
		default:
			// Uniform over 5000 names at 5 % of traffic: each comes
			// round long after the LRU dropped it, so these reach the
			// provider through Forward.
			s.seq[i] = host + uint32(rng.Intn(hostCount))
		}
	}
	return s
}

// workload is one traffic mix and the reason it is in the benchmark.
type workload struct {
	name string
	why  string
	gen  func(seed int64) *stream
}

var workloads = []workload{
	{"hit-plain", "OPT-less A queries, Zipf over 1000 cached names: the wire-image fast path, where socket I/O, queue hand-off and telemetry dominate", genHitPlain},
	{"hit-ecs", "OPT+ECS/24 queries over 2048 cached scope-24 entries: same layers as hit-plain but the cache takes its Clone-patch-repack fallback and dnswire parses and packs OPT", genHitECS},
	{"route-miss", "never-repeated ECS names: L-DNS miss, Stub, loopback exchange, C-DNS Router (75% subnet table, 25% ring-policy-mesh), cache store and eviction - the paper's P2 path", genRouteMiss},
	{"zipf-mix", "60% ECS catalog, 25% OPT-only and 10% OPT-less zone names, 5% forwarded; the working set exceeds the cache, so the hit ratio is an outcome of the eviction policy", genZipfMix},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
