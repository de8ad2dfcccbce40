package cdn

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

// Tier is a CDN hierarchy level.
type Tier int

// CDN tiers, nearest to farthest from the client.
const (
	TierEdge Tier = iota // at the MEC site
	TierMid              // alongside the mobile core
	TierFar              // in the cloud, over WAN
)

// String returns the tier label.
func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierMid:
		return "mid"
	case TierFar:
		return "far"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// The content protocol is a two-line text exchange over simnet
// datagrams:
//
//	request:  GET <domain> <name>
//	response: HIT <size> | FILLED <size> | NOTFOUND | ERR <msg>
//
// HIT means served from this server's cache; FILLED means a miss that
// was filled from the parent tier (the client still gets the object,
// later and at backhaul cost).
//
// Health probes use a separate verb so they touch neither the cache
// nor the load window:
//
//	request:  PING
//	response: PONG | ERR unavailable

// FetchResult describes how a content request was served.
type FetchResult struct {
	Status string // "HIT", "FILLED", "NOTFOUND", "ERR"
	Size   int64
	// RTT is the virtual time the fetch took end to end.
	RTT time.Duration
}

// Served reports whether the object was delivered.
func (f FetchResult) Served() bool { return f.Status == "HIT" || f.Status == "FILLED" }

// Fetch requests (domain, name) from the content server at addr using
// the given simnet endpoint.
func Fetch(ep *simnet.Endpoint, addr netip.Addr, domain, name string, timeout time.Duration) (FetchResult, error) {
	payload := []byte("GET " + domain + " " + name)
	resp, rtt, err := ep.Exchange(addr, payload, timeout)
	if err != nil {
		return FetchResult{RTT: rtt}, fmt.Errorf("fetching %s/%s from %v: %w", domain, name, addr, err)
	}
	res := FetchResult{RTT: rtt}
	fields := strings.Fields(string(resp))
	if len(fields) == 0 {
		return res, fmt.Errorf("fetching %s/%s: empty response", domain, name)
	}
	res.Status = fields[0]
	if len(fields) > 1 {
		if n, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			res.Size = n
		}
	}
	return res, nil
}

// CacheServer is one CDN cache instance bound to a simnet node.
type CacheServer struct {
	// Name identifies the server to the router and hash ring.
	Name string
	// Site labels the server's physical location (edge site id).
	Site string
	// Tier is the server's hierarchy level.
	Tier Tier

	node   *simnet.Node
	cache  *LRU
	parent netip.Addr // next tier (or origin service) for miss fill
	domain map[string]bool

	// ServeDelay is the per-request processing time; nil means zero.
	ServeDelay simnet.Sampler

	mu      sync.Mutex
	healthy bool
	// recent holds request timestamps inside the load window.
	recent []time.Duration
}

// loadWindow is the sliding window Load counts requests over.
const loadWindow = time.Second

// CacheServerConfig configures NewCacheServer.
type CacheServerConfig struct {
	Name          string
	Site          string
	Tier          Tier
	CapacityBytes int64
	// Parent is the address misses are filled from. Unset (zero
	// Addr) makes misses NOTFOUND — a leaf with no upstream.
	Parent netip.Addr
	// Domains this server is willing to serve.
	Domains []string
	// ServeDelay samples per-request processing time.
	ServeDelay simnet.Sampler
}

// NewCacheServer creates a cache server and installs its handler on
// node.
func NewCacheServer(node *simnet.Node, cfg CacheServerConfig) *CacheServer {
	s := &CacheServer{
		Name:       cfg.Name,
		Site:       cfg.Site,
		Tier:       cfg.Tier,
		node:       node,
		cache:      NewLRU(cfg.CapacityBytes),
		parent:     cfg.Parent,
		domain:     make(map[string]bool, len(cfg.Domains)),
		ServeDelay: cfg.ServeDelay,
		healthy:    true,
	}
	if s.Name == "" {
		s.Name = node.Name
	}
	for _, d := range cfg.Domains {
		s.domain[canonicalDomain(d)] = true
	}
	node.SetHandler(simnet.HandlerFunc(s.handle))
	return s
}

func canonicalDomain(d string) string {
	b := make([]byte, len(d), len(d)+1)
	for i := 0; i < len(d); i++ {
		b[i] = asciiLower(d[i])
	}
	if len(b) == 0 || b[len(b)-1] != '.' {
		b = append(b, '.')
	}
	return string(b)
}

// asciiLower lowers an ASCII letter (RFC 4343 case folding) and returns
// any other octet as it is.
func asciiLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Addr returns the server's network address.
func (s *CacheServer) Addr() netip.Addr { return s.node.Addr }

// Cache exposes the underlying LRU for stats and warm-up.
func (s *CacheServer) Cache() *LRU { return s.cache }

// Healthy reports the server's health flag.
func (s *CacheServer) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy
}

// SetHealthy flips the health flag (failure injection). This is the
// data-plane chaos layer: a server with the flag off refuses content
// requests and health probes alike, so an attached health.Registry
// observes the failure and demotes it.
func (s *CacheServer) SetHealthy(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthy = up
}

// Load returns the number of requests inside the sliding window.
func (s *CacheServer) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prune(s.node.Network().Now())
	return len(s.recent)
}

func (s *CacheServer) prune(now time.Duration) {
	cut := 0
	for cut < len(s.recent) && now-s.recent[cut] > loadWindow {
		cut++
	}
	s.recent = s.recent[cut:]
}

// Warm preloads content into the server's cache (the orchestrator's
// pre-positioning step when a MEC-CDN instance deploys).
func (s *CacheServer) Warm(contents ...Content) {
	for _, c := range contents {
		s.cache.Put(c)
	}
}

// Strict bounds on the content protocol's verb parser: a request over
// maxRequestLen is dropped before field-splitting, and each GET field
// is length-checked, so a misdirected or adversarial datagram (for
// example a binary mesh ANNOUNCE aimed at a cache instead of a mesh
// agent) is counted as an error reply and can never panic the server
// or blow up its parse cost.
const (
	maxRequestLen = 512
	maxFieldLen   = 255
)

// request is one content-protocol datagram, parsed: "PING", or
// "GET <domain> <name>" with domain canonicalized.
type request struct {
	ping         bool
	domain, name string
}

// parseRequest reads payload, at most maxRequestLen octets, as a
// request; false means "ERR bad-request": anything but PING, or GET with
// two fields of at most maxFieldLen octets. The protocol is ASCII and is
// read octet by octet: fields are split at runs of ASCII white space,
// and nothing is decoded as UTF-8.
func parseRequest(payload []byte) (request, bool) {
	var fields [3][]byte
	n := 0
	for i := 0; i < len(payload); {
		if asciiSpace(payload[i]) {
			i++
			continue
		}
		j := i
		for j < len(payload) && !asciiSpace(payload[j]) {
			j++
		}
		if n == len(fields) {
			return request{}, false
		}
		fields[n], n, i = payload[i:j], n+1, j
	}
	switch {
	case n == 1 && string(fields[0]) == "PING":
		return request{ping: true}, true
	case n == 3 && string(fields[0]) == "GET" && len(fields[1]) <= maxFieldLen && len(fields[2]) <= maxFieldLen:
		return request{domain: canonicalDomain(string(fields[1])), name: string(fields[2])}, true
	}
	return request{}, false
}

// asciiSpace reports whether c is ASCII white space, as the C locale's
// isspace has it.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

func (s *CacheServer) handle(ctx *simnet.Ctx, dg simnet.Datagram) {
	if len(dg.Payload) > maxRequestLen {
		ctx.Reply([]byte("ERR too-long"), 0)
		return
	}
	req, ok := parseRequest(dg.Payload)
	reply := func(msg string) {
		var delay time.Duration
		if s.ServeDelay != nil {
			delay = s.ServeDelay.Sample(ctx.Network().Rand())
		}
		ctx.Reply([]byte(msg), delay)
	}
	if !ok {
		reply("ERR bad-request")
		return
	}
	if req.ping {
		// Health probe: answered before load accounting so probes never
		// skew the load window, and gated on the health flag so failure
		// injection (SetHealthy) is visible to the prober, not just to
		// content requests.
		s.mu.Lock()
		healthy := s.healthy
		s.mu.Unlock()
		if healthy {
			reply("PONG")
		} else {
			reply("ERR unavailable")
		}
		return
	}
	domain, name := req.domain, req.name

	s.mu.Lock()
	now := ctx.Now()
	s.recent = append(s.recent, now)
	s.prune(now)
	healthy := s.healthy
	serves := len(s.domain) == 0 || s.domain[domain]
	s.mu.Unlock()

	if !healthy || !serves {
		reply("ERR unavailable")
		return
	}
	if obj, ok := s.cache.Get(name); ok {
		reply(fmt.Sprintf("HIT %d", obj.Size))
		return
	}
	if !s.parent.IsValid() {
		reply("NOTFOUND")
		return
	}
	// Miss: fill from the parent tier in virtual time.
	res, err := Fetch(s.node.Endpoint(), s.parent, domain, name, 5*time.Second)
	if err != nil || !res.Served() {
		reply("NOTFOUND")
		return
	}
	s.cache.Put(Content{Name: name, Size: res.Size})
	reply(fmt.Sprintf("FILLED %d", res.Size))
}

// OriginServer exposes an Origin store as a simnet content service.
type OriginServer struct {
	origin *Origin
	node   *simnet.Node
	// ServeDelay samples per-request origin processing time.
	ServeDelay simnet.Sampler
}

// NewOriginServer installs origin on node.
func NewOriginServer(node *simnet.Node, origin *Origin, serveDelay simnet.Sampler) *OriginServer {
	s := &OriginServer{origin: origin, node: node, ServeDelay: serveDelay}
	node.SetHandler(simnet.HandlerFunc(s.handle))
	return s
}

// Addr returns the origin service address.
func (s *OriginServer) Addr() netip.Addr { return s.node.Addr }

func (s *OriginServer) handle(ctx *simnet.Ctx, dg simnet.Datagram) {
	if len(dg.Payload) > maxRequestLen {
		ctx.Reply([]byte("ERR too-long"), 0)
		return
	}
	req, ok := parseRequest(dg.Payload)
	reply := func(msg string) {
		var delay time.Duration
		if s.ServeDelay != nil {
			delay = s.ServeDelay.Sample(ctx.Network().Rand())
		}
		ctx.Reply([]byte(msg), delay)
	}
	if !ok || req.ping { // an origin is not health-probed
		reply("ERR bad-request")
		return
	}
	obj, found := s.origin.Fetch(req.domain, req.name)
	if !found {
		reply("NOTFOUND")
		return
	}
	reply(fmt.Sprintf("HIT %d", obj.Size))
}
