// Package mobility manages UE attachment and base-station handoff,
// including the paper's DNS switch-over: "when an end user connects
// to a particular base station, its target DNS is switched to that of
// the MEC DNS", performed as part of the hand-off process.
package mobility

import (
	"fmt"
	"net/netip"
	"sync"

	"github.com/meccdn/meccdn/internal/simnet"
)

// Site describes one edge location: its base station and the MEC DNS
// serving it.
type Site struct {
	// Name labels the site.
	Name string
	// ENB is the base-station node name.
	ENB string
	// DNS is the MEC DNS clients should use while attached here.
	DNS netip.AddrPort
}

// Event records one attachment change for observers.
type Event struct {
	UE       string
	From, To string // site names; From is "" on initial attach
}

// Manager tracks UE attachments across edge sites.
type Manager struct {
	net *simnet.Network
	// Air is the radio link profile applied on attach.
	Air simnet.Sampler
	// AirLoss is the radio loss probability.
	AirLoss float64

	mu        sync.Mutex
	sites     map[string]*Site
	attached  map[string]string // ue node → site name
	observers []func(Event)
}

// NewManager returns a manager over net.
func NewManager(net *simnet.Network, air simnet.Sampler, airLoss float64) *Manager {
	return &Manager{
		net:      net,
		Air:      air,
		AirLoss:  airLoss,
		sites:    make(map[string]*Site),
		attached: make(map[string]string),
	}
}

// AddSite registers an edge site.
func (m *Manager) AddSite(s Site) error {
	if m.net.Node(s.ENB) == nil {
		return fmt.Errorf("mobility: site %s references unknown eNB %q", s.Name, s.ENB)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sites[s.Name]; ok {
		return fmt.Errorf("mobility: duplicate site %s", s.Name)
	}
	m.sites[s.Name] = &s
	return nil
}

// Observe registers a callback fired on every attach and handoff.
func (m *Manager) Observe(f func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observers = append(m.observers, f)
}

// Attach connects ue to the named site, tearing down any previous
// radio bearer first (break-before-make), and returns the site's MEC
// DNS — the address the UE must use from now on.
func (m *Manager) Attach(ue, siteName string) (netip.AddrPort, error) {
	if m.net.Node(ue) == nil {
		return netip.AddrPort{}, fmt.Errorf("mobility: unknown UE node %q", ue)
	}
	m.mu.Lock()
	site, ok := m.sites[siteName]
	if !ok {
		m.mu.Unlock()
		return netip.AddrPort{}, fmt.Errorf("mobility: unknown site %q", siteName)
	}
	prev := m.attached[ue]
	if prev == siteName {
		m.mu.Unlock()
		return site.DNS, nil
	}
	var prevENB string
	if prev != "" {
		prevENB = m.sites[prev].ENB
	}
	m.attached[ue] = siteName
	observers := make([]func(Event), len(m.observers))
	copy(observers, m.observers)
	m.mu.Unlock()

	if prevENB != "" {
		m.net.RemoveLink(ue, prevENB)
	}
	m.net.AddLink(ue, site.ENB, m.Air, m.AirLoss)
	ev := Event{UE: ue, From: prev, To: siteName}
	for _, f := range observers {
		f(ev)
	}
	return site.DNS, nil
}

// Handoff is Attach with the explicit requirement that the UE is
// already attached somewhere else.
func (m *Manager) Handoff(ue, toSite string) (netip.AddrPort, error) {
	m.mu.Lock()
	prev := m.attached[ue]
	m.mu.Unlock()
	if prev == "" {
		return netip.AddrPort{}, fmt.Errorf("mobility: handoff of unattached UE %q", ue)
	}
	if prev == toSite {
		return netip.AddrPort{}, fmt.Errorf("mobility: UE %q already at %s", ue, toSite)
	}
	return m.Attach(ue, toSite)
}

// AttachedSite returns the UE's current site name, or "".
func (m *Manager) AttachedSite(ue string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attached[ue]
}

// CurrentDNS returns the MEC DNS of the UE's current site.
func (m *Manager) CurrentDNS(ue string) (netip.AddrPort, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	site := m.attached[ue]
	if site == "" {
		return netip.AddrPort{}, false
	}
	return m.sites[site].DNS, true
}
