package meccdn

import (
	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/health"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// DNS wire-format types (RFC 1035 + EDNS0/ECS).
type (
	// Message is a complete DNS message.
	Message = dnswire.Message
	// RRHeader is the fields shared by all records.
	RRHeader = dnswire.RRHeader
	// TXT is a text record.
	TXT = dnswire.TXT
	// RecordType is a DNS record type code.
	RecordType = dnswire.Type
)

// Common record types.
const (
	TypeA     = dnswire.TypeA
	TypeAAAA  = dnswire.TypeAAAA
	TypeCNAME = dnswire.TypeCNAME
	TypeNS    = dnswire.TypeNS
	TypeSOA   = dnswire.TypeSOA
	TypeTXT   = dnswire.TypeTXT
	TypeSRV   = dnswire.TypeSRV
)

// NewECSOption builds a query-side EDNS Client Subnet option.
var NewECSOption = dnswire.NewECSOption

// DNS server engine and plugins (CoreDNS-style chain).
type (
	// DNSServer serves a handler over real UDP and TCP sockets.
	DNSServer = dnsserver.Server
	// DNSPlugin is one link of a server chain.
	DNSPlugin = dnsserver.Plugin
	// Split serves separate internal and public namespaces.
	Split = dnsserver.Split
	// Client is a DNS stub client with retries and TCP fallback.
	Client = dnsclient.Client
	// NetTransport exchanges DNS messages over real sockets. It keeps
	// its upstream UDP sockets between exchanges: share one per
	// process, and Close it to release the idle ones.
	NetTransport = dnsclient.NetTransport
	// SocketStats is a snapshot of a NetTransport's UDP socket pool.
	SocketStats = dnsclient.SocketStats
)

// Chain composes plugins into a handler; unmatched queries are
// REFUSED by the terminal fallthrough.
func Chain(plugins ...DNSPlugin) dnsserver.Handler { return dnsserver.Chain(plugins...) }

// NewZone creates an empty authoritative zone rooted at origin.
func NewZone(origin string) *dnsserver.Zone { return dnsserver.NewZone(origin) }

// NewZonePlugin builds an authoritative plugin from zones.
func NewZonePlugin(zones ...*dnsserver.Zone) *dnsserver.ZonePlugin {
	return dnsserver.NewZonePlugin(zones...)
}

// NewDNSMetrics returns an empty metrics plugin.
func NewDNSMetrics() *dnsserver.Metrics { return dnsserver.NewMetrics() }

// AttachDNS installs a DNS handler on a simulator node with the given
// per-query processing-time distribution.
func AttachDNS(node *Node, h dnsserver.Handler, proc simnet.Sampler) {
	dnsserver.Attach(node, h, nil, proc)
}

// NewTelemetryRegistry returns an empty metrics registry; every
// component's Collectors() registers on one.
func NewTelemetryRegistry() *telemetry.Registry { return telemetry.NewRegistry() }

// Health control plane: active probers scoring targets and a
// per-target hysteresis state machine.
type (
	// HealthConfig parameterizes a health registry: probe cadence,
	// demotion/promotion thresholds and dwell times.
	HealthConfig = health.Config
	// HealthState is one target's hysteresis state.
	HealthState = health.State
)

// HealthDown is the state of a target routing avoids.
const HealthDown = health.StateDown
