package meccdn

import (
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/resolver"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// DNS wire-format types (RFC 1035 + EDNS0/ECS).
type (
	// Message is a complete DNS message.
	Message = dnswire.Message
	// Question is one question-section entry.
	Question = dnswire.Question
	// RR is a resource record.
	RR = dnswire.RR
	// RRHeader is the fields shared by all records.
	RRHeader = dnswire.RRHeader
	// A is an IPv4 address record.
	A = dnswire.A
	// AAAA is an IPv6 address record.
	AAAA = dnswire.AAAA
	// CNAME is an alias record.
	CNAME = dnswire.CNAME
	// NS is a delegation record.
	NS = dnswire.NS
	// SOA is a start-of-authority record.
	SOA = dnswire.SOA
	// TXT is a text record.
	TXT = dnswire.TXT
	// SRV is a service-location record.
	SRV = dnswire.SRV
	// OPT is the EDNS(0) pseudo-record.
	OPT = dnswire.OPT
	// ECSOption is the EDNS Client Subnet option (RFC 7871).
	ECSOption = dnswire.ECSOption
	// RecordType is a DNS record type code.
	RecordType = dnswire.Type
	// Rcode is a DNS response code.
	Rcode = dnswire.Rcode
)

// Common record types and response codes.
const (
	TypeA     = dnswire.TypeA
	TypeAAAA  = dnswire.TypeAAAA
	TypeCNAME = dnswire.TypeCNAME
	TypeNS    = dnswire.TypeNS
	TypeSOA   = dnswire.TypeSOA
	TypeTXT   = dnswire.TypeTXT
	TypeSRV   = dnswire.TypeSRV

	RcodeSuccess        = dnswire.RcodeSuccess
	RcodeNameError      = dnswire.RcodeNameError
	RcodeServerFailure  = dnswire.RcodeServerFailure
	RcodeRefused        = dnswire.RcodeRefused
	RcodeNotImplemented = dnswire.RcodeNotImplemented
)

// NewECSOption builds a query-side EDNS Client Subnet option.
var NewECSOption = dnswire.NewECSOption

// CanonicalName lower-cases and fully qualifies a domain name.
func CanonicalName(name string) string { return dnswire.CanonicalName(name) }

// IsSubdomain reports whether child is equal to or beneath parent.
func IsSubdomain(parent, child string) bool { return dnswire.IsSubdomain(parent, child) }

// DNS server engine and plugins (CoreDNS-style chain).
type (
	// DNSServer serves a handler over real UDP and TCP sockets.
	DNSServer = dnsserver.Server
	// DNSHandler answers DNS requests.
	DNSHandler = dnsserver.Handler
	// DNSPlugin is one link of a server chain.
	DNSPlugin = dnsserver.Plugin
	// DNSRequest is one inbound query with connection metadata.
	DNSRequest = dnsserver.Request
	// ResponseWriter takes the response to one request, the first one
	// written, and reports whether there has been one.
	ResponseWriter = dnsserver.ResponseWriter
	// Zone is an in-memory authoritative zone.
	Zone = dnsserver.Zone
	// ZoneView is one immutable published snapshot of a zone's
	// record set; queries resolve against a view, never a lock.
	ZoneView = dnsserver.ZoneView
	// ZoneBuilder batches zone mutations into one atomic publish.
	ZoneBuilder = dnsserver.ZoneBuilder
	// ZoneDelta is one zone revision in the IXFR journal.
	ZoneDelta = dnsserver.ZoneDelta
	// ZonePlugin serves authoritative answers from zones.
	ZonePlugin = dnsserver.ZonePlugin
	// DNSCache is a sharded TTL-honouring response cache plugin with
	// singleflight miss coalescing.
	DNSCache = dnsserver.Cache
	// DNSCacheStats is a snapshot of the cache counters.
	DNSCacheStats = dnsserver.CacheStats
	// Forward forwards queries to upstream resolvers with rcode-aware
	// failover, health cooldowns, and optional hedged queries.
	Forward = dnsserver.Forward
	// ForwardStats is a snapshot of the forwarding counters.
	ForwardStats = dnsserver.ForwardStats
	// Stub routes sub-domains to dedicated upstreams (the CoreDNS
	// stub-domain mechanism handing the CDN domain to the C-DNS).
	Stub = dnsserver.Stub
	// Split serves separate internal and public namespaces.
	Split = dnsserver.Split
	// ECSPlugin attaches EDNS Client Subnet to forwarded queries.
	ECSPlugin = dnsserver.ECS
	// LoadShed diverts traffic above an ingress threshold.
	LoadShed = dnsserver.LoadShed
	// ACL gates queries by source prefix and domain.
	ACL = dnsserver.ACL
	// AXFRPlugin serves zone transfers to allowed secondaries.
	AXFRPlugin = dnsserver.AXFR
	// DNSMetrics counts queries by type and rcode.
	DNSMetrics = dnsserver.Metrics
	// Resolver is a recursive resolver (L-DNS) plugin.
	Resolver = resolver.Resolver
	// Client is a DNS stub client with retries and TCP fallback.
	Client = dnsclient.Client
	// NetTransport exchanges DNS messages over real sockets. It keeps
	// its upstream UDP sockets between exchanges: share one per
	// process, and Close it to release the idle ones.
	NetTransport = dnsclient.NetTransport
	// SocketStats is a snapshot of a NetTransport's UDP socket pool.
	SocketStats = dnsclient.SocketStats
	// SimTransport exchanges DNS messages inside the simulator.
	SimTransport = dnsclient.SimTransport
	// VClock abstracts elapsed time (virtual or wall clock).
	VClock = vclock.Clock
)

// Chain composes plugins into a handler; unmatched queries are
// REFUSED by the terminal fallthrough.
func Chain(plugins ...DNSPlugin) DNSHandler { return dnsserver.Chain(plugins...) }

// NewZone creates an empty authoritative zone rooted at origin.
func NewZone(origin string) *Zone { return dnsserver.NewZone(origin) }

// NewZonePlugin builds an authoritative plugin from zones.
func NewZonePlugin(zones ...*Zone) *ZonePlugin { return dnsserver.NewZonePlugin(zones...) }

// NewDNSCache returns a response cache using the given clock.
func NewDNSCache(clock VClock) *DNSCache { return dnsserver.NewCache(clock) }

// NewStub returns an empty stub-domain router.
func NewStub(client *Client) *Stub { return dnsserver.NewStub(client) }

// NewDNSMetrics returns an empty metrics plugin.
func NewDNSMetrics() *DNSMetrics { return dnsserver.NewMetrics() }

// NewACL returns an access-control plugin that allows everything.
func NewACL() *ACL { return dnsserver.NewACL() }

// NewAXFR serves zone transfers of the plugin's zones.
var NewAXFR = dnsserver.NewAXFR

// ZoneFromTransfer rebuilds a secondary zone from AXFR records.
var ZoneFromTransfer = dnsserver.ZoneFromTransfer

// ApplyTransfer applies an AXFR or IXFR response to a secondary zone,
// classifying it per RFC 1995 (up-to-date, incremental, or full).
var ApplyTransfer = dnsserver.ApplyTransfer

// NewResolver builds a recursive resolver rooted at the given servers.
var NewResolver = resolver.New

// AttachDNS installs a DNS handler on a simulator node with the given
// per-query processing-time distribution.
func AttachDNS(node *Node, h DNSHandler, proc Sampler) { dnsserver.Attach(node, h, proc) }

// RealClock returns a wall clock for live servers.
func RealClock() VClock { return vclock.NewReal() }

// TelemetryRegistry collects metric families for Prometheus text
// exposition; every component's Collectors() registers on one.
type TelemetryRegistry = telemetry.Registry

// Health control plane: active probers scoring targets, a per-target
// hysteresis state machine, and the ingress-load fallback switch.
type (
	// HealthConfig parameterizes a health registry: probe cadence,
	// demotion/promotion thresholds, dwell times, and load watermarks.
	HealthConfig = health.Config
	// HealthRegistry tracks per-target probe verdicts through the
	// probing → healthy → degraded → down hysteresis machine and
	// drives the ingress-load fallback switch. Routers and forwarders
	// consult it instead of static health flags.
	HealthRegistry = health.Registry
	// HealthState is one target's hysteresis state.
	HealthState = health.State
	// HealthStatus is one target's externally visible health record.
	HealthStatus = health.TargetStatus
)

// Health states.
const (
	HealthProbing  = health.StateProbing
	HealthHealthy  = health.StateHealthy
	HealthDegraded = health.StateDegraded
	HealthDown     = health.StateDown
)

// NewHealthRegistry returns an empty registry with cfg's defaults
// applied.
func NewHealthRegistry(cfg HealthConfig) *HealthRegistry { return health.New(cfg) }

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }
