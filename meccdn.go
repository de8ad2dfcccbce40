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
// simulator for experiments (see RunFigure5 and friends) and over
// real UDP/TCP sockets for live deployments (see Server and Client in
// dns.go). See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-versus-measured record.
package meccdn

import (
	"github.com/meccdn/meccdn/internal/cdn"
	"github.com/meccdn/meccdn/internal/geoip"
	"github.com/meccdn/meccdn/internal/lpm"
	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/meccdn"
	"github.com/meccdn/meccdn/internal/mesh"
	"github.com/meccdn/meccdn/internal/mobility"
	"github.com/meccdn/meccdn/internal/orchestrator"
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
	// ResolutionMode selects between MEC DNS and provider L-DNS.
	ResolutionMode = meccdn.ResolutionMode
	// Result is one resolution outcome.
	Result = meccdn.Result
	// FetchResult is a resolution plus content transfer.
	FetchResult = meccdn.FetchResult
	// DomainDeployment is one CDN customer domain hosted at a site.
	DomainDeployment = meccdn.DomainDeployment
	// Role is a Table 2 ecosystem role.
	Role = meccdn.Role
	// Entity is an ecosystem participant holding one or more roles.
	Entity = meccdn.Entity
)

// Resolution modes.
const (
	MECOnly           = meccdn.MECOnly
	ProviderOnly      = meccdn.ProviderOnly
	Multicast         = meccdn.Multicast
	FallbackOnTimeout = meccdn.FallbackOnTimeout
)

// Ecosystem roles (Table 2).
const (
	RoleCellularProvider = meccdn.RoleCellularProvider
	RoleCDNProvider      = meccdn.RoleCDNProvider
	RoleDNSProvider      = meccdn.RoleDNSProvider
	RoleWebProvider      = meccdn.RoleWebProvider
	RoleCloudProvider    = meccdn.RoleCloudProvider
	RoleCDNBroker        = meccdn.RoleCDNBroker
	RoleMECProvider      = meccdn.RoleMECProvider
)

// DeploySite builds a complete MEC-CDN edge site on a testbed.
func DeploySite(tb *Testbed, cfg SiteConfig) (*Site, error) {
	return meccdn.DeploySite(tb, cfg)
}

// AllRoles lists every Table 2 role.
func AllRoles() []Role { return meccdn.AllRoles() }

// PerformanceOwners returns the entities that influence the DNS→CDN
// resolution path.
func PerformanceOwners(entities []Entity) []Entity {
	return meccdn.PerformanceOwners(entities)
}

// CDN substrate types.
type (
	// Content identifies one cacheable object.
	Content = cdn.Content
	// Catalog is a CDN customer's published object set.
	Catalog = cdn.Catalog
	// Origin is the authoritative content store.
	Origin = cdn.Origin
	// CacheServer is one CDN cache instance.
	CacheServer = cdn.CacheServer
	// CacheServerConfig configures NewCacheServer.
	CacheServerConfig = cdn.CacheServerConfig
	// Router is the CDN request router (C-DNS).
	Router = cdn.Router
	// CacheProber health-checks cache servers over the simulated
	// content protocol (PING/PONG) for a HealthRegistry.
	CacheProber = cdn.CacheProber
	// SelectionPolicy picks a cache server for a request.
	SelectionPolicy = cdn.SelectionPolicy
	// Tier is a CDN hierarchy level.
	Tier = cdn.Tier
)

// Subnet→PoP routing types: the ECS-scoped LPM table the C-DNS
// consults before policy routing (see DESIGN.md "Subnet routing").
type (
	// RouteTable is an immutable longest-prefix-match table mapping
	// client subnets to PoP IDs; install on a Router with SetRoutes.
	RouteTable = lpm.Table
	// RouteBuilder accumulates prefix→PoP rows for a RouteTable.
	RouteBuilder = lpm.Builder
	// PoP identifies a point of presence in a RouteTable.
	PoP = lpm.PoP
)

// NewRouteBuilder returns an empty RouteBuilder.
func NewRouteBuilder() *RouteBuilder { return lpm.NewBuilder() }

// CDN tiers.
const (
	TierEdge = cdn.TierEdge
	TierMid  = cdn.TierMid
	TierFar  = cdn.TierFar
)

// NewCatalog returns an empty catalog for a CDN domain.
func NewCatalog(domain string) *Catalog { return cdn.NewCatalog(domain) }

// NewOrigin returns an empty origin store.
func NewOrigin() *Origin { return cdn.NewOrigin() }

// NewCacheServer installs a cache server on a simulator node.
func NewCacheServer(node *Node, cfg CacheServerConfig) *CacheServer {
	return cdn.NewCacheServer(node, cfg)
}

// NewOriginServer exposes an origin as a content service on a node.
func NewOriginServer(node *Node, origin *Origin, serveDelay Sampler) *cdn.OriginServer {
	return cdn.NewOriginServer(node, origin, serveDelay)
}

// NewRouter returns a C-DNS request router for a CDN domain.
func NewRouter(domain string) *Router { return cdn.NewRouter(domain) }

// Fetch requests content from a cache or origin server.
var Fetch = cdn.Fetch

// Selection policies for the C-DNS.
type (
	// AvailabilityFirst prefers servers already holding the content.
	AvailabilityFirst = cdn.AvailabilityFirst
	// GeoNearest picks the server closest to the located client.
	GeoNearest = cdn.GeoNearest
	// RoundRobin cycles through candidates (the disaggregating
	// baseline).
	RoundRobin = cdn.RoundRobin
	// LeastLoaded picks the least-busy candidate.
	LeastLoaded = cdn.LeastLoaded
)

// Federated mesh types: gossip-announced content tables between
// sibling MEC sites and peer-steered miss routing (see DESIGN.md
// "Federated mesh").
type (
	// MeshView is the read-plane peer snapshot a Router consults on
	// the miss path (one atomic load per lookup).
	MeshView = mesh.View
	// MeshStatus is the JSON-serializable snapshot behind admin /mesh.
	MeshStatus = mesh.Status
	// PeerHit identifies the sibling site a lookup steered to.
	PeerHit = mesh.PeerHit
	// MeshOptions enables the mesh agent on a deployed Site.
	MeshOptions = meccdn.MeshOptions
)

// ConnectMesh peers every given site with every other, both ways.
func ConnectMesh(sites ...*Site) error { return meccdn.ConnectMesh(sites...) }

// Orchestration types (the Kubernetes-like substrate).
type (
	// Orchestrator is the cluster control plane.
	Orchestrator = orchestrator.Orchestrator
	// OrchestratorConfig parameterizes NewOrchestrator.
	OrchestratorConfig = orchestrator.Config
	// Service is a stable cluster IP fronting endpoints.
	Service = orchestrator.Service
	// ServiceSpec configures CreateService.
	ServiceSpec = orchestrator.ServiceSpec
	// Deployment scales workload instances behind a Service.
	Deployment = orchestrator.Deployment
)

// NewOrchestrator creates an empty cluster.
func NewOrchestrator(cfg OrchestratorConfig) (*Orchestrator, error) {
	return orchestrator.New(cfg)
}

// Mobility types.
type (
	// MobilityManager tracks UE attachment across edge sites.
	MobilityManager = mobility.Manager
	// MobilitySite is one edge location with its MEC DNS.
	MobilitySite = mobility.Site
	// MobilityEvent records an attach or handoff.
	MobilityEvent = mobility.Event
)

// NewMobilityManager returns a manager over a simulated network.
func NewMobilityManager(net *Network, air Sampler, airLoss float64) *MobilityManager {
	return mobility.NewManager(net, air, airLoss)
}

// GeoIP types.
type (
	// GeoDB maps address prefixes to locations with configurable
	// accuracy.
	GeoDB = geoip.DB
	// Location is a point used for nearest-site routing.
	Location = geoip.Location
)

// NewGeoDB returns an empty, fully accurate GeoIP database.
func NewGeoDB() *GeoDB { return geoip.New() }

// Testbed and simulator types.
type (
	// Testbed is a built LTE/MEC topology on the simulator.
	Testbed = lte.Testbed
	// TestbedConfig parameterizes NewTestbed.
	TestbedConfig = lte.Config
	// AirProfile models one radio generation's air interface.
	AirProfile = lte.AirProfile
	// Network is the discrete-event network simulator.
	Network = simnet.Network
	// Node is one simulated network element.
	Node = simnet.Node
	// Sampler produces latency samples.
	Sampler = simnet.Sampler
	// HopEvent is one packet observation at a tapped node.
	HopEvent = simnet.HopEvent
	// HopKind classifies a HopEvent (forward, deliver, drop).
	HopKind = simnet.HopKind
)

// Well-known testbed node names.
const (
	NodeUE  = lte.NodeUE
	NodeSGW = lte.NodeSGW
	NodePGW = lte.NodePGW
)

// NewTestbed builds the LTE/MEC topology (UE, eNB, EPC).
func NewTestbed(cfg TestbedConfig) *Testbed { return lte.New(cfg) }

// LTE4G returns the paper-calibrated 4G air profile (~10ms one way).
func LTE4G() AirProfile { return lte.LTE4G() }

// NR5G returns the paper's 5G projection profile.
func NR5G() AirProfile { return lte.NR5G() }

// ENB returns the i-th base-station node name.
func ENB(i int) string { return lte.ENB(i) }

// Latency samplers for topology building.
type (
	// Constant is a fixed delay.
	Constant = simnet.Constant
	// Uniform samples uniformly from [Min, Max].
	Uniform = simnet.Uniform
	// Normal samples a truncated normal distribution.
	Normal = simnet.Normal
	// LogNormal samples a heavy-tailed latency distribution.
	LogNormal = simnet.LogNormal
	// Shifted adds a base offset to another sampler.
	Shifted = simnet.Shifted
)
