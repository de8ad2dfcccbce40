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
	// ResponseWriter sends the response for one request.
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
	// BackgroundTracker scopes background work (cache refresh-ahead
	// prefetches) to a server's graceful drain; a started DNSServer
	// implements it.
	BackgroundTracker = dnsserver.BackgroundTracker
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

// ParseZone reads a minimal zone-file dialect.
var ParseZone = dnsserver.ParseZone

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

// Telemetry: per-query spans, the metrics registry, and the sampled
// query log, plus the admin HTTP endpoint that exposes them.
type (
	// Telemetry owns the per-process observability state: the span
	// sampler, serve-duration histogram, resolution-path counters, and
	// the bounded query log. Install one on a DNSServer to get a hop
	// breakdown for every query.
	Telemetry = telemetry.Hub
	// TelemetryRegistry collects metric families for Prometheus text
	// exposition.
	TelemetryRegistry = telemetry.Registry
	// TelemetryAdmin serves /metrics, /healthz, /querylog and
	// /debug/pprof on a side HTTP listener.
	TelemetryAdmin = telemetry.Admin
	// TelemetryCollector is one exposable metric family.
	TelemetryCollector = telemetry.Collector
	// Span is one query's hop-by-hop trace.
	Span = telemetry.Span
	// QueryLog is the bounded ring of sampled query records.
	QueryLog = telemetry.QueryLog
	// TelemetryCounter is a single lock-free cumulative counter.
	TelemetryCounter = telemetry.Counter
	// TelemetryCounterVec is a labelled family of counters.
	TelemetryCounterVec = telemetry.CounterVec
)

// NewTelemetryCounter returns a registerable counter family of one.
func NewTelemetryCounter(name, help string) *TelemetryCounter {
	return telemetry.NewCounter(name, help)
}

// NewTelemetryCounterVec returns a labelled counter family.
func NewTelemetryCounterVec(name, help string, labels ...string) *TelemetryCounterVec {
	return telemetry.NewCounterVec(name, help, labels...)
}

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
	// HealthChecker runs the periodic, jittered probe loop feeding a
	// registry.
	HealthChecker = health.Checker
	// HealthState is one target's hysteresis state.
	HealthState = health.State
	// HealthStatus is one target's externally visible health record.
	HealthStatus = health.TargetStatus
	// HealthProber issues one liveness probe against a target.
	HealthProber = health.Prober
	// DNSProber probes DNS upstreams with a lightweight NS query over
	// the client's transport; any well-formed response counts as
	// alive.
	DNSProber = health.DNSProber
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

// NewTelemetry builds a Hub (span sampler + default DNS metric
// families) on the given clock.
func NewTelemetry(clock VClock) *Telemetry { return telemetry.NewHub(clock) }

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewQueryLog returns a bounded query-log ring.
func NewQueryLog(capacity int) *QueryLog { return telemetry.NewQueryLog(capacity) }
