// Package dnsd is the dnsd daemon as a library: a typed Config, Build
// to assemble the L-DNS (with its optional embedded C-DNS, prober, mesh
// agent and admin endpoint) over real sockets, and a Daemon that owns
// start order, online reload and the drain. cmd/dnsd is flags and
// signals around it. The package never writes to stdout or stderr.
package dnsd

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/mesh"
)

// Config is the daemon's whole configuration surface: one field per
// dnsd flag, named after it (`dnsd -h` documents each). A zero field
// means what the flag's zero means — the component's own default — so
// Config{Listen: ...} alone builds a serving daemon.
type Config struct {
	Listen                    string
	Forward                   string // comma-separated host:port list, as the flag is; Build parses it
	Hedge, Cooldown           time.Duration
	MaxFailures               int
	CacheEntries, CacheShards int
	PrefetchFrac              float64
	MaxStale                  time.Duration

	Admin               string
	QlogSample, QlogCap int
	// Drain is the budget in-flight queries get when a failed Start
	// unwinds; Shutdown's is its context's, and cmd/dnsd passes this one.
	Drain time.Duration

	UDPQueue, Sockets, Batch, MaxConns int

	ProbeInterval, ProbeTimeout time.Duration
	DownAfter, UpAfter          int
	LoadHigh, LoadLow           float64

	CDNDomain, Routes string
	RingBounded       bool
	RingLoadFactor    float64

	Mesh, MeshName   string
	AnnounceInterval time.Duration

	Zones []ZoneFile  // -zone
	Stubs []StubRoute // -stub
	PoPs  []PoPAddr   // -pop
	Peers []mesh.Peer // -peers
}

// ZoneFile is one -zone: a zone served authoritatively from a file
// that Reload re-reads.
type ZoneFile struct{ Origin, Path string }

// StubRoute is one -stub: queries under Domain go to Upstreams.
type StubRoute struct {
	Domain    string
	Upstreams []netip.AddrPort
}

// PoPAddr is one -pop: the address the router answers with for a PoP
// ID of the routes file.
type PoPAddr struct {
	ID   lpm.PoP
	Addr netip.Addr
}

// AddZone appends a -zone value, "origin=path". Like the other Add
// methods it has flag.Func's signature, and its errors say only what
// was wanted: the flag package names the flag and quotes the value.
func (c *Config) AddZone(s string) error {
	origin, path, ok := strings.Cut(s, "=")
	if !ok {
		return errors.New("want origin=path")
	}
	c.Zones = append(c.Zones, ZoneFile{Origin: origin, Path: path})
	return nil
}

// AddStub appends a -stub value, "domain=host:port[,host:port...]".
func (c *Config) AddStub(s string) error {
	domain, upstreams, ok := strings.Cut(s, "=")
	if !ok {
		return errors.New("want domain=host:port")
	}
	addrs, err := parseUpstreams(upstreams)
	if err != nil {
		return fmt.Errorf("bad stub upstream %q: %w", upstreams, err)
	}
	c.Stubs = append(c.Stubs, StubRoute{Domain: domain, Upstreams: addrs})
	return nil
}

// AddPoP appends a -pop value, "id=addr".
func (c *Config) AddPoP(s string) error {
	idStr, addrStr, ok := strings.Cut(s, "=")
	if !ok {
		return errors.New("want id=addr")
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		return fmt.Errorf("bad PoP id %q: %w", idStr, err)
	}
	addr, err := netip.ParseAddr(addrStr)
	if err != nil {
		return fmt.Errorf("bad PoP address %q: %w", addrStr, err)
	}
	c.PoPs = append(c.PoPs, PoPAddr{ID: lpm.PoP(id), Addr: addr})
	return nil
}

// AddPeer appends a -peers value, "name=host:port".
func (c *Config) AddPeer(s string) error {
	name, addr, ok := strings.Cut(s, "=")
	if !ok {
		return errors.New("want name=host:port")
	}
	if _, err := netip.ParseAddrPort(addr); err != nil {
		return fmt.Errorf("bad peer address %q: %w", addr, err)
	}
	c.Peers = append(c.Peers, mesh.Peer{Name: name, Addr: addr})
	return nil
}

// parseUpstreams parses a comma-separated list of host:port addresses.
func parseUpstreams(s string) ([]netip.AddrPort, error) {
	var addrs []netip.AddrPort
	for _, part := range strings.Split(s, ",") {
		addr, err := netip.ParseAddrPort(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// validate checks the cross-field requirements the flags document.
func (c *Config) validate() error {
	switch {
	case c.CDNDomain == "" && (c.Routes != "" || len(c.PoPs) > 0):
		return errors.New("-routes and -pop require -cdn-domain")
	case c.CDNDomain == "" && c.RingBounded:
		return errors.New("-ring-bounded requires -cdn-domain")
	case c.CDNDomain == "" && c.Mesh != "":
		return errors.New("-mesh requires -cdn-domain")
	case c.Mesh == "" && len(c.Peers) > 0:
		return errors.New("-peers requires -mesh")
	case c.RingBounded && c.RingLoadFactor <= 1:
		return fmt.Errorf("-ring-load-factor must be > 1, got %v", c.RingLoadFactor)
	}
	return nil
}
