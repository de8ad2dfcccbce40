// Package meccdn is an edge-contained DNS + CDN request-routing stack:
// a production-quality reproduction of "DNS Does Not Suffice for
// MEC-CDN" (HotNets '20).
//
// The paper's argument: CDNs deployed at the mobile edge (MEC) cannot
// deliver sub-20 ms content access while DNS resolution still
// traverses the hierarchical resolver path behind the cellular core.
// Its design resolves CDN domains entirely at the edge by
// re-purposing the MEC orchestrator's internal service-discovery DNS
// (split into an internal and a public namespace) and collocating the
// CDN's request router (C-DNS) in the same cluster, so the first DNS
// hop away from the UE returns the cluster IP of an edge cache that
// has the content.
//
// This package is the public facade over the implementation:
//
//	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: 1})
//	site, err := meccdn.DeploySite(tb, meccdn.SiteConfig{Domain: "mycdn.ciab.test."})
//	ue := &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: site.LDNS}
//	res, err := ue.Resolve("video.demo1.mycdn.ciab.test.")
//
// Everything runs twice over: on a deterministic virtual-time network
// simulator for experiments (see RunFigure5) and over real UDP/TCP
// sockets for live deployments (see DNSServer and Client in dns.go).
// The facade exports what the programs under examples/ and cmd/ use
// and nothing more (TestFacadeHasUsers). See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-versus-measured record.
package meccdn

import (
	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/meccdn"
	"github.com/meccdn/meccdn/internal/mobility"
	"github.com/meccdn/meccdn/internal/simnet"
)

// Core MEC-CDN types (the paper's contribution).
type (
	// Site is a deployed MEC-CDN edge site: split-namespace MEC
	// L-DNS, collocated C-DNS, and cache instances behind cluster IPs.
	Site = meccdn.Site
	// SiteConfig parameterizes DeploySite.
	SiteConfig = meccdn.SiteConfig
	// UEClient is the end-user resolver stub with pluggable policy.
	UEClient = meccdn.UEClient
)

// Multicast queries the MEC DNS and the provider L-DNS at once and
// takes the faster useful answer.
const Multicast = meccdn.Multicast

// DeploySite builds a complete MEC-CDN edge site on a testbed.
func DeploySite(tb *Testbed, cfg SiteConfig) (*Site, error) {
	return meccdn.DeploySite(tb, cfg)
}

// ConnectMesh peers every given site with every other, both ways.
func ConnectMesh(sites ...*Site) error { return meccdn.ConnectMesh(sites...) }

// CDN substrate types.
type (
	// Content identifies one cacheable object.
	Content = cdn.Content
	// CacheServer is one CDN cache instance.
	CacheServer = cdn.CacheServer
	// CacheServerConfig configures NewCacheServer.
	CacheServerConfig = cdn.CacheServerConfig
	// SelectionPolicy picks a cache server for a request.
	SelectionPolicy = cdn.SelectionPolicy
)

// CDN tiers.
const (
	TierEdge = cdn.TierEdge
	TierMid  = cdn.TierMid
)

// NewCatalog returns an empty catalog for a CDN domain.
func NewCatalog(domain string) *cdn.Catalog { return cdn.NewCatalog(domain) }

// NewOrigin returns an empty origin store.
func NewOrigin() *cdn.Origin { return cdn.NewOrigin() }

// NewCacheServer installs a cache server on a simulator node.
func NewCacheServer(node *Node, cfg CacheServerConfig) *CacheServer {
	return cdn.NewCacheServer(node, cfg)
}

// NewOriginServer exposes an origin as a content service on a node.
func NewOriginServer(node *Node, origin *cdn.Origin, serveDelay simnet.Sampler) *cdn.OriginServer {
	return cdn.NewOriginServer(node, origin, serveDelay)
}

// NewRouter returns a C-DNS request router for a CDN domain.
func NewRouter(domain string) *cdn.Router { return cdn.NewRouter(domain) }

// Selection policies for the C-DNS.
type (
	// AvailabilityFirst prefers servers already holding the content.
	AvailabilityFirst = cdn.AvailabilityFirst
	// RoundRobin cycles through candidates (the disaggregating
	// baseline).
	RoundRobin = cdn.RoundRobin
	// LeastLoaded picks the least-busy candidate.
	LeastLoaded = cdn.LeastLoaded
)

// Mobility types.
type (
	// MobilitySite is one edge location with its MEC DNS.
	MobilitySite = mobility.Site
	// MobilityEvent records an attach or handoff.
	MobilityEvent = mobility.Event
)

// NewMobilityManager returns a manager tracking UE attachment across
// edge sites over a simulated network.
func NewMobilityManager(net *simnet.Network, air simnet.Sampler, airLoss float64) *mobility.Manager {
	return mobility.NewManager(net, air, airLoss)
}

// Location is a point used for nearest-site routing.
type Location = geoip.Location

// Testbed and simulator types.
type (
	// Testbed is a built LTE/MEC topology on the simulator.
	Testbed = lte.Testbed
	// TestbedConfig parameterizes NewTestbed.
	TestbedConfig = lte.Config
	// AirProfile models one radio generation's air interface.
	AirProfile = lte.AirProfile
	// Node is one simulated network element.
	Node = simnet.Node
	// HopEvent is one packet observation at a tapped node.
	HopEvent = simnet.HopEvent
	// Constant is a fixed-delay latency sampler.
	Constant = simnet.Constant
)

// NodeUE is the testbed's user-equipment node.
const NodeUE = lte.NodeUE

// NewTestbed builds the LTE/MEC topology (UE, eNB, EPC).
func NewTestbed(cfg TestbedConfig) *Testbed { return lte.New(cfg) }

// LTE4G returns the paper-calibrated 4G air profile (~10ms one way).
func LTE4G() AirProfile { return lte.LTE4G() }

// NR5G returns the paper's 5G projection profile.
func NR5G() AirProfile { return lte.NR5G() }

// ENB returns the i-th base-station node name.
func ENB(i int) string { return lte.ENB(i) }
