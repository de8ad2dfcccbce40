// Package orchestrator reimplements the slice of Kubernetes the
// paper's prototype relies on: Services with stable cluster IPs and
// round-robin endpoint proxying (kube-proxy), and a service registry
// that feeds the split-namespace DNS zones — the orchestrator's
// "dedicated, internal DNS" that the MEC-CDN design re-purposes for
// public CDN resolution.
//
// The cluster-IP indirection is also the paper's public-IP reuse
// mechanism (§3/§5): every MEC-CDN customer domain resolves to a
// cluster IP, so the MEC site needs no per-customer public addresses.
package orchestrator

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// Config parameterizes a cluster.
type Config struct {
	// Net is the simulator the cluster lives in; required.
	Net *simnet.Network
	// FabricNode is the node the pod network hangs off (typically the
	// P-GW or a dedicated switch node); required.
	FabricNode string
	// PodDelay is the pod-network per-hop latency; nil means 100µs.
	PodDelay simnet.Sampler
}

// clusterCIDR is the service IP range, a stock kubeadm cluster's.
var clusterCIDR = netip.MustParsePrefix("10.96.0.0/16")

// clusterDomain is the internal DNS suffix.
const clusterDomain = "cluster.local."

// Orchestrator is the cluster control plane.
type Orchestrator struct {
	cfg Config

	mu       sync.Mutex
	services map[string]*Service
	nextIP   uint32

	internalZone *dnsserver.Zone
	publicZone   *dnsserver.Zone
	publicNames  map[string]string // public FQDN → service key
}

// New creates an empty cluster.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("orchestrator: nil network")
	}
	if cfg.Net.Node(cfg.FabricNode) == nil {
		return nil, fmt.Errorf("orchestrator: fabric node %q does not exist", cfg.FabricNode)
	}
	if cfg.PodDelay == nil {
		cfg.PodDelay = simnet.Constant(100 * time.Microsecond)
	}
	return &Orchestrator{
		cfg:          cfg,
		services:     make(map[string]*Service),
		internalZone: dnsserver.NewZone(clusterDomain),
		publicNames:  make(map[string]string),
		nextIP:       1, // skip network address
	}, nil
}

// InternalZone is the VNF service-discovery namespace: every service
// is visible here as <name>.<namespace>.svc.<cluster-domain>.
func (o *Orchestrator) InternalZone() *dnsserver.Zone { return o.internalZone }

// InCluster reports whether addr is inside the cluster's service IP
// range: a client the split-namespace DNS serves the internal view.
func (o *Orchestrator) InCluster(addr netip.Addr) bool { return clusterCIDR.Contains(addr) }

// SetPublicZone installs the publicly visible namespace zone; public
// services are registered into it under their public FQDNs. The zone
// is typically served by the MEC L-DNS public view.
func (o *Orchestrator) SetPublicZone(z *dnsserver.Zone) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.publicZone = z
}

// Service is a stable virtual IP fronting a set of endpoints.
type Service struct {
	Name      string
	Namespace string
	ClusterIP netip.Addr

	endpoints []netip.Addr
	rr        atomic.Uint64
}

// ServiceSpec configures CreateService.
type ServiceSpec struct {
	Name      string
	Namespace string // "" means "default"
	// PublicName, when set, also registers the service in the public
	// zone under this FQDN (the MEC-CDN exposure path).
	PublicName string
	// Endpoints are the backend addresses.
	Endpoints []netip.Addr
}

func serviceKey(ns, name string) string { return ns + "/" + name }

// CreateService allocates a cluster IP, starts the kube-proxy-style
// forwarder on its own node, and registers DNS records.
func (o *Orchestrator) CreateService(spec ServiceSpec) (*Service, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("orchestrator: service needs a name")
	}
	if spec.Namespace == "" {
		spec.Namespace = "default"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	key := serviceKey(spec.Namespace, spec.Name)
	if _, exists := o.services[key]; exists {
		return nil, fmt.Errorf("orchestrator: service %s already exists", key)
	}
	ip, err := o.allocateIPLocked()
	if err != nil {
		return nil, err
	}
	nodeName := "svc-" + spec.Namespace + "-" + spec.Name
	node := o.cfg.Net.AddNodeAddr(nodeName, ip)
	o.cfg.Net.AddLink(o.cfg.FabricNode, nodeName, o.cfg.PodDelay, 0)

	svc := &Service{
		Name:      spec.Name,
		Namespace: spec.Namespace,
		ClusterIP: ip,
		endpoints: append([]netip.Addr(nil), spec.Endpoints...),
	}
	node.SetHandler(simnet.HandlerFunc(svc.proxy))
	o.services[key] = svc

	fqdn := spec.Name + "." + spec.Namespace + ".svc." + clusterDomain
	if err := o.internalZone.AddA(fqdn, 30, ip); err != nil {
		return nil, fmt.Errorf("registering %s: %w", fqdn, err)
	}
	if spec.PublicName != "" {
		pub := dnswire.CanonicalName(spec.PublicName)
		o.publicNames[pub] = key
		if o.publicZone != nil {
			if err := o.publicZone.AddA(pub, 30, ip); err != nil {
				return nil, fmt.Errorf("registering public name %s: %w", pub, err)
			}
		}
	}
	return svc, nil
}

// PublicIPReport quantifies the paper's IP-reuse benefit: with the
// MEC-CDN design every public name shares the MEC DNS ingress (1
// address); without it, each exposed service would need its own
// public IP.
func (o *Orchestrator) PublicIPReport() (withReuse, withoutReuse int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	exposed := len(o.publicNames)
	if exposed == 0 {
		return 0, 0
	}
	return 1, exposed
}

func (o *Orchestrator) allocateIPLocked() (netip.Addr, error) {
	base := clusterCIDR.Masked().Addr().As4()
	for ; o.nextIP < 1<<16; o.nextIP++ {
		candidate := netip.AddrFrom4([4]byte{base[0], base[1], byte(o.nextIP >> 8), byte(o.nextIP)})
		if !clusterCIDR.Contains(candidate) {
			break
		}
		if o.cfg.Net.NodeByAddr(candidate) == nil {
			o.nextIP++
			return candidate, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("orchestrator: cluster CIDR %v exhausted", clusterCIDR)
}

// proxy forwards a datagram to one endpoint (round-robin) and relays
// the reply, like kube-proxy NATing a Service hit.
func (s *Service) proxy(ctx *simnet.Ctx, dg simnet.Datagram) {
	if len(s.endpoints) == 0 {
		return
	}
	target := s.endpoints[(s.rr.Add(1)-1)%uint64(len(s.endpoints))]

	// Forward with the client's address preserved, like kube-proxy
	// DNAT: the backend (e.g. a split-horizon DNS) must see the real
	// client, not the service IP.
	resp, _, err := ctx.Node().Endpoint().ExchangeFrom(target, dg.Payload, 2*time.Second, dg.Client())
	if err != nil {
		return
	}
	ctx.Reply(resp, 0)
}
