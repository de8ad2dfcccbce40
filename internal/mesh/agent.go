package mesh

import (
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// Peer is one configured announce target.
type Peer struct {
	// Name is the peer site's name (must match what it announces as).
	Name string
	// Addr is the peer's mesh endpoint in the transport's address
	// syntax: a bare netip.Addr string under simnet, host:port over
	// UDP.
	Addr string
}

// Transport delivers one announce datagram and returns the reply.
type Transport interface {
	Exchange(addr string, payload []byte, timeout time.Duration) ([]byte, error)
}

// Config parameterizes NewAgent.
type Config struct {
	// Site is this site's name, carried in every announce. Required.
	Site string
	// AnswerAddr is where peers should steer clients who miss locally
	// — the textual address of this site's C-DNS. Empty means
	// announce-only (peers learn the digest but never steer here).
	AnswerAddr string
	// Peers seeds the announce targets; AddPeer extends them later.
	Peers []Peer
	// AnnounceInterval is the gossip cadence for Start; zero means 2s.
	// A peer stays steerable for staleAfterIntervals of it after its
	// last applied announce.
	AnnounceInterval time.Duration
	// Health, when non-nil, folds per-peer failure detection into the
	// registry: configured peers are registered as "peer:<name>"
	// targets, every announce exchange reports as a probe, and a peer
	// must be routable per the registry to stay in the steering view.
	Health *health.Registry
	// Clock drives freshness; nil means wall clock.
	Clock vclock.Clock
	// Transport sends announces; nil until BindSimnet (simnet) or a
	// UDPTransport (dnsd) is supplied. With no transport the agent is
	// receive-only.
	Transport Transport
	// Source enumerates the site's content table for each announce
	// round (typically iterating the cache fleet's LRUs); nil
	// announces an empty digest — the dnsd shape, where the C-DNS
	// routes but holds no content.
	Source func(add func(name string))
	// Load self-reports ingress load in [0,1] for the announce health
	// summary; nil reports 0.
	Load func() float64
}

const (
	// announceTimeout bounds one announce exchange.
	announceTimeout = 2 * time.Second
	// staleAfterIntervals is how many announce intervals a peer's last
	// applied announce keeps it steerable.
	staleAfterIntervals = 3
	// loadFactor is the bounded-load factor c over peer steering cells:
	// no peer absorbs more than ⌈c·(total+1)/peers⌉ steered misses per
	// decay window, so a flash crowd cannot stampede one sibling.
	loadFactor = 1.25
	// peerLoadMax drops a peer whose self-reported ingress load meets
	// or exceeds it from steering.
	peerLoadMax = 0.9
)

// peerRecord is the writer-side state for one announcing site.
type peerRecord struct {
	addr     netip.Addr
	filter   Filter
	gen      uint32
	genValid bool
	entries  int
	load     float64
	updated  time.Duration
}

// Cells of meccdn_mesh_announces_total: outgoing announces, then
// incoming ones.
const (
	announceOK = iota
	announceSendError
	announceBadAck
	announceEncodeError
	announceApplied
	announceStale
	announceMalformed
	announceBadVerb
)

// Agent runs one site's half of the mesh: it announces the local
// content digest to configured peers, applies announces it receives,
// and publishes the resulting peer table as a lock-free View.
type Agent struct {
	cfg Config

	gen         atomic.Uint32
	view        View
	digestBytes atomic.Int64

	// wmu serializes all writers: announce application, peer
	// add/remove, view republish, load decay. The serve path reads
	// the View and never takes it.
	wmu        sync.Mutex
	peers      []Peer
	recv       map[string]*peerRecord
	cells      map[string]*peerCell
	registered map[string]bool // peer names in the health registry

	announces *telemetry.Family // by announce* cell

	runMu sync.Mutex
	stop  chan struct{}
	done  chan struct{}
}

// peerTarget namespaces peer names in a (possibly shared) health
// registry so they cannot collide with cache-instance targets.
func peerTarget(name string) string { return "peer:" + name }

// NewAgent builds an agent; call BindSimnet or set Config.Transport
// before announcing.
func NewAgent(cfg Config) *Agent {
	if cfg.Site == "" {
		cfg.Site = "mec"
	}
	if cfg.AnnounceInterval <= 0 {
		cfg.AnnounceInterval = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewReal()
	}
	a := &Agent{
		cfg:        cfg,
		recv:       make(map[string]*peerRecord),
		cells:      make(map[string]*peerCell),
		registered: make(map[string]bool),
		announces: telemetry.NewCounters("meccdn_mesh_announces_total",
			"Mesh announce events by result: ok/send_error/bad_ack (outgoing), applied/stale/malformed/bad_verb (incoming).", "result",
			"ok", "send_error", "bad_ack", "encode_error", "applied", "stale", "malformed", "bad_verb"),
	}
	if cfg.Health != nil {
		cfg.Health.OnTransition(func(name string, _, _ health.State) {
			// A peer's health verdict changed: republish so the serve
			// path's eligibility flags catch up immediately rather than
			// on the next announce round. The listener runs without the
			// registry lock, so publish may consult the registry freely.
			if !strings.HasPrefix(name, "peer:") {
				return
			}
			a.wmu.Lock()
			if a.registered[strings.TrimPrefix(name, "peer:")] {
				a.publishLocked()
			}
			a.wmu.Unlock()
		})
	}
	for _, p := range cfg.Peers {
		a.AddPeer(p)
	}
	return a
}

// Site returns the agent's site name.
func (a *Agent) Site() string { return a.cfg.Site }

// View returns the published peer table for the router's miss path.
func (a *Agent) View() *View { return &a.view }

// AddPeer registers an announce target (idempotent by name; a new
// address replaces the old).
func (a *Agent) AddPeer(p Peer) {
	if p.Name == "" || p.Name == a.cfg.Site {
		return
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	replaced := false
	for i := range a.peers {
		if a.peers[i].Name == p.Name {
			a.peers[i] = p
			replaced = true
			break
		}
	}
	if !replaced {
		a.peers = append(a.peers, p)
	}
	if a.cfg.Health != nil && !a.registered[p.Name] {
		a.cfg.Health.Add(peerTarget(p.Name), p.Addr)
		a.registered[p.Name] = true
	}
	a.publishLocked()
}

// RemovePeer drops a configured peer: it is no longer announced to,
// leaves the health registry, and any received state stops steering.
func (a *Agent) RemovePeer(name string) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	kept := a.peers[:0]
	for _, p := range a.peers {
		if p.Name != name {
			kept = append(kept, p)
		}
	}
	a.peers = kept
	delete(a.recv, name)
	if a.registered[name] {
		a.cfg.Health.Remove(peerTarget(name))
		delete(a.registered, name)
	}
	a.publishLocked()
}

// PeerNames returns the configured announce targets, sorted.
func (a *Agent) PeerNames() []string {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	names := make([]string, len(a.peers))
	for i, p := range a.peers {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// AnnounceOnce runs one announce round synchronously: build the
// digest from Source, send it to every configured peer (each exchange
// reporting into the health registry), then republish the view so
// freshness and health verdicts are re-evaluated. Virtual-time
// callers drive this directly; Start wraps it in a wall-clock loop.
func (a *Agent) AnnounceOnce() {
	d := NewDigest(DefaultDigestBits, DefaultDigestHashes)
	if a.cfg.Source != nil {
		a.cfg.Source(d.Add)
	}
	bitmap := d.Bitmap()
	a.digestBytes.Store(int64(len(bitmap)))
	var load float64
	if a.cfg.Load != nil {
		load = a.cfg.Load()
	}
	gen := a.gen.Add(1)
	payload, err := EncodeAnnounce(a.cfg.Site, a.cfg.AnswerAddr, gen, d.Entries(), load, d.Hashes(), bitmap)
	if err != nil {
		a.announces.Inc(announceEncodeError)
		return
	}

	a.wmu.Lock()
	targets := make([]Peer, len(a.peers))
	copy(targets, a.peers)
	a.wmu.Unlock()

	tr := a.cfg.Transport
	for _, p := range targets {
		if tr == nil {
			break
		}
		start := a.cfg.Clock.Now()
		resp, err := tr.Exchange(p.Addr, payload, announceTimeout)
		switch {
		case err != nil:
			a.announces.Inc(announceSendError)
			a.reportPeer(p.Name, false, 0)
		default:
			if _, ok := DecodeDigestAck(resp); !ok {
				a.announces.Inc(announceBadAck)
				a.reportPeer(p.Name, false, 0)
				continue
			}
			a.announces.Inc(announceOK)
			a.reportPeer(p.Name, true, a.cfg.Clock.Now()-start)
		}
	}

	a.wmu.Lock()
	a.publishLocked()
	a.wmu.Unlock()
}

// reportPeer feeds one announce outcome into the health registry.
func (a *Agent) reportPeer(name string, ok bool, rtt time.Duration) {
	if a.cfg.Health == nil {
		return
	}
	if ok {
		a.cfg.Health.ReportSuccess(peerTarget(name), rtt)
	} else {
		a.cfg.Health.ReportFailure(peerTarget(name))
	}
}

// HandleDatagram answers one mesh datagram (PING or ANNOUNCE) and
// returns the reply payload. Malformed announces are counted and
// dropped with an ERR reply; nothing panics on adversarial input.
func (a *Agent) HandleDatagram(payload []byte) []byte {
	if string(payload) == "PING" {
		return []byte("PONG")
	}
	if len(payload) >= len(AnnouncePrefix) && string(payload[:len(AnnouncePrefix)]) == AnnouncePrefix {
		ann, err := DecodeAnnounce(payload)
		if err != nil {
			a.announces.Inc(announceMalformed)
			return []byte("ERR malformed-announce")
		}
		return a.applyAnnounce(ann)
	}
	a.announces.Inc(announceBadVerb)
	return []byte("ERR bad-request")
}

// applyAnnounce folds one decoded announce into the peer table. The
// generation must advance past the last applied one (serial-number
// comparison); a stale or replayed announce is dropped, acknowledged
// with the generation already held so the sender can observe the
// skew. Full-state announcements make this the entire anti-entropy
// protocol: a missed round converges on the next.
func (a *Agent) applyAnnounce(ann Announce) []byte {
	if ann.Site == a.cfg.Site {
		a.announces.Inc(announceBadVerb)
		return []byte("ERR self-announce")
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	rec := a.recv[ann.Site]
	if rec != nil && rec.genValid && !genNewer(ann.Gen, rec.gen) {
		a.announces.Inc(announceStale)
		return EncodeDigestAck(rec.gen)
	}
	if rec == nil {
		rec = &peerRecord{}
		a.recv[ann.Site] = rec
	}
	var addr netip.Addr
	if ann.Addr != "" {
		if parsed, err := netip.ParseAddr(ann.Addr); err == nil {
			addr = parsed
		} else if parsed, err := netip.ParseAddrPort(ann.Addr); err == nil {
			addr = parsed.Addr()
		}
	}
	rec.addr = addr
	rec.filter = ann.Filter
	rec.gen = ann.Gen
	rec.genValid = true
	rec.entries = ann.Entries
	rec.load = ann.Load
	rec.updated = a.cfg.Clock.Now()
	a.announces.Inc(announceApplied)
	a.publishLocked()
	return EncodeDigestAck(ann.Gen)
}

// publishLocked rebuilds and publishes the view snapshot from the
// received peer records. Callers hold a.wmu. Eligibility is baked in
// at publish time — health verdict, announce freshness, reported
// load, steerable address — so the serve path's walk is pure reads.
func (a *Agent) publishLocked() {
	now := a.cfg.Clock.Now()
	peers := make([]peerEntry, 0, len(a.recv))
	ranks := make(map[string]int, len(a.recv))
	for name, rec := range a.recv {
		cell := a.cells[name]
		if cell == nil {
			cell = &peerCell{target: peerTarget(name)}
			a.cells[name] = cell
		}
		e := peerEntry{
			name:    name,
			addr:    rec.addr,
			filter:  rec.filter,
			gen:     rec.gen,
			entries: rec.entries,
			load:    rec.load,
			updated: rec.updated,
			cell:    cell,
		}
		e.ok = rec.addr.IsValid() && now-rec.updated <= staleAfterIntervals*a.cfg.AnnounceInterval && rec.load < peerLoadMax
		if a.cfg.Health != nil && a.registered[name] {
			rank, ewma := a.cfg.Health.Rank(cell.target)
			ranks[name] = rank
			e.ewma = ewma
			if routable, _ := a.cfg.Health.Eligible(cell.target); !routable {
				e.ok = false
			}
		}
		peers = append(peers, e)
	}
	sort.Slice(peers, func(i, j int) bool {
		pi, pj := &peers[i], &peers[j]
		if pi.ok != pj.ok {
			return pi.ok
		}
		if ri, rj := ranks[pi.name], ranks[pj.name]; ri != rj {
			return ri < rj
		}
		if pi.ewma != pj.ewma {
			return pi.ewma < pj.ewma
		}
		return pi.name < pj.name
	})
	a.view.state.Store(&viewState{peers: peers})
	var total int64
	for i := range peers {
		total += peers[i].cell.n.Load()
	}
	a.view.total.Store(total)
}

// DecayLoads multiplies every peer steering cell by factor (clamped
// to [0,1]) — the same recent-window decay the hash ring's cells get,
// at the caller's cadence: the announce loop under Start, once per
// round, and X9's tick loop (nothing decays dnsd's hash ring).
func (a *Agent) DecayLoads(factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	for _, c := range a.cells {
		c.n.Store(int64(float64(c.n.Load()) * factor))
	}
	var total int64
	s := a.view.snapshot()
	for i := range s.peers {
		total += s.peers[i].cell.n.Load()
	}
	a.view.total.Store(total)
}

// Start runs the wall-clock announce loop: one round immediately,
// then one per AnnounceInterval with a load decay between rounds.
// Virtual-time callers use AnnounceOnce instead.
func (a *Agent) Start() {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	if a.stop != nil {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		a.AnnounceOnce()
		t := time.NewTicker(a.cfg.AnnounceInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				a.DecayLoads(0.5)
				a.AnnounceOnce()
			}
		}
	}(a.stop, a.done)
}

// Stop halts the announce loop started by Start.
func (a *Agent) Stop() {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	if a.stop == nil {
		return
	}
	close(a.stop)
	<-a.done
	a.stop, a.done = nil, nil
}

// Collectors returns the mesh metric families for registration.
func (a *Agent) Collectors() []telemetry.Collector {
	return []telemetry.Collector{
		a.announces,
		telemetry.NewCounterFunc("meccdn_mesh_peer_hits_total",
			"Miss-path lookups steered to a peer MEC that announced the object.",
			func() float64 { return float64(a.view.PeerHits()) }),
		telemetry.NewCounterFunc("meccdn_mesh_peer_misses_total",
			"Miss-path lookups no eligible peer could absorb.",
			func() float64 { return float64(a.view.PeerMisses()) }),
		telemetry.NewGaugeFunc("meccdn_mesh_digest_bytes",
			"Size of the last announced content digest bitmap in bytes.",
			func() float64 { return float64(a.digestBytes.Load()) }),
		telemetry.NewGaugeFunc("meccdn_mesh_peers",
			"Peer sites currently in the steering view (eligible or not).",
			func() float64 { return float64(a.view.Peers()) }),
	}
}

// PeerStatus is one peer's row in the admin /mesh snapshot.
type PeerStatus struct {
	Name       string  `json:"name"`
	Addr       string  `json:"addr,omitempty"`
	Generation uint32  `json:"generation"`
	Entries    int     `json:"entries"`
	Load       float64 `json:"load"`
	Eligible   bool    `json:"eligible"`
	AgeMS      int64   `json:"age_ms"`
	Steered    int64   `json:"steered"`
}

// Status is the admin /mesh snapshot.
type Status struct {
	Site         string       `json:"site"`
	Generation   uint32       `json:"generation"`
	DigestBits   int          `json:"digest_bits"`
	DigestHashes int          `json:"digest_hashes"`
	Configured   []string     `json:"configured_peers"`
	PeerHits     uint64       `json:"peer_hits"`
	PeerMisses   uint64       `json:"peer_misses"`
	Peers        []PeerStatus `json:"peers"`
}

// Snapshot returns the agent's current state for the admin plane.
func (a *Agent) Snapshot() Status {
	st := Status{
		Site:         a.cfg.Site,
		Generation:   a.gen.Load(),
		DigestBits:   DefaultDigestBits,
		DigestHashes: DefaultDigestHashes,
		Configured:   a.PeerNames(),
		PeerHits:     a.view.PeerHits(),
		PeerMisses:   a.view.PeerMisses(),
	}
	now := a.cfg.Clock.Now()
	s := a.view.snapshot()
	st.Peers = make([]PeerStatus, 0, len(s.peers))
	for i := range s.peers {
		p := &s.peers[i]
		ps := PeerStatus{
			Name:       p.name,
			Generation: p.gen,
			Entries:    p.entries,
			Load:       p.load,
			Eligible:   p.ok,
			AgeMS:      int64((now - p.updated) / time.Millisecond),
			Steered:    p.cell.n.Load(),
		}
		if p.addr.IsValid() {
			ps.Addr = p.addr.String()
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
