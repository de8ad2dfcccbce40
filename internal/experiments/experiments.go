// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated testbed, printing the same rows
// and series the paper reports. Each experiment is a pure function of
// its seed, so results replay exactly.
//
// Index (see DESIGN.md for the full mapping):
//
//	Table1        — the five tested CDN domains
//	RenderTable2  — ecosystem entities and roles
//	Figure2       — DNS lookup latency × access network
//	Figure3       — response distribution across cache-server CIDRs
//	Figure5       — LTE-testbed DNS latency across six deployments
//	ECS           — §4 EDNS-Client-Subnet result
//	Fallback      — §3 non-MEC-name policies (X1)
//	Disaggregation— §2 Obs. 2 cache-miss effect (X2)
//	IPReuse       — §3/§5 public-IP reuse (X4)
//	LoadShed      — §3 DoS-threshold switching (X5)
package experiments

import (
	"fmt"
	"strings"

	"github.com/meccdn/meccdn/internal/meccdn"
)

// Website is one row of Table 1.
type Website struct {
	Agency string
	Domain string
}

// Table1 returns the five travel-agency websites and the CDN domains
// the paper tested for static web content.
func Table1() []Website {
	return []Website{
		{"Airbnb", "a0.muscache.com"},
		{"Booking.com", "q-cf.bstatic.com"},
		{"TripAdvisor", "static.tacdn.com"},
		{"Agoda", "cdn0.agoda.net"},
		{"Expedia", "a.cdn.intentmedia.net"},
	}
}

// RenderTable1 prints Table 1.
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: tested CDN domains for static web content\n")
	fmt.Fprintf(&b, "%-16s %s\n", "Online travel agency", "Tested CDN domain name")
	for _, w := range Table1() {
		fmt.Fprintf(&b, "%-16s %s\n", w.Agency, w.Domain)
	}
	return b.String()
}

// RenderTable2 prints Table 2.
func RenderTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: entities and roles in MEC CDN\n")
	fmt.Fprintf(&b, "%-18s %s\n", "Entity", "Role")
	for _, r := range meccdn.AllRoles() {
		fmt.Fprintf(&b, "%-18s %s\n", r.String(), r.Duty())
	}
	return b.String()
}
