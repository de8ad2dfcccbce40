package dnsserver

// LDNS names the links an L-DNS chain may have. The serving order is
// decided here and nowhere else: Plugins returns the links that are
// set, in the order below — the field order. Every assembler (the
// dnsd daemon over sockets, meccdn.DeploySite under simnet) fills the
// links it has and takes the order from Plugins.
//
// Why this order: Metrics counts every reply, Shed's included; Shed refuses
// before any work is spent; ECS stamps the query before Cache keys on
// its subnet; Cache fronts every link that can produce an answer; then
// the most specific source wins — a stub domain handed to a collocated
// C-DNS, an authoritative zone, the embedded request router — and
// Forward takes what nothing else claimed.
type LDNS struct {
	Metrics *Metrics
	Shed    *LoadShed
	ECS     *ECS
	Cache   *Cache
	Stub    *Stub
	Zones   *ZonePlugin
	// Router is the embedded C-DNS request router (a *cdn.Router, which
	// this package cannot import). Leave it unset rather than assigning
	// a nil pointer: a typed nil is a non-nil Plugin.
	Router  Plugin
	Forward *Forward
}

// Plugins returns the set links in serving order.
func (l LDNS) Plugins() []Plugin {
	var ps []Plugin
	add := func(p Plugin, set bool) {
		if set {
			ps = append(ps, p)
		}
	}
	add(l.Metrics, l.Metrics != nil)
	add(l.Shed, l.Shed != nil)
	add(l.ECS, l.ECS != nil)
	add(l.Cache, l.Cache != nil)
	add(l.Stub, l.Stub != nil)
	add(l.Zones, l.Zones != nil)
	add(l.Router, l.Router != nil)
	add(l.Forward, l.Forward != nil)
	return ps
}
