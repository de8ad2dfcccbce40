package meccdn

import "fmt"

// Role is one of the MEC-CDN ecosystem roles of the paper's Table 2.
type Role int

// Ecosystem roles.
const (
	RoleCellularProvider Role = iota
	RoleCDNProvider
	RoleDNSProvider
	RoleWebProvider
	RoleCloudProvider
	RoleCDNBroker
	RoleMECProvider
)

// roleInfo carries the Table 2 row for each role.
var roleInfo = map[Role]struct{ name, duty string }{
	RoleCellularProvider: {"Cellular Provider", "Operating RAN and cellular core network"},
	RoleCDNProvider:      {"CDN Provider", "Providing content caches on CDN domains hosted on some server nodes"},
	RoleDNSProvider:      {"DNS Provider", "Routing requests to closest CDN domain servers"},
	RoleWebProvider:      {"Web Provider", "Delivering web services that use CDNs to provide better services to end users"},
	RoleCloudProvider:    {"Cloud Provider", "Providing server infrastructure to one or more of the above"},
	RoleCDNBroker:        {"CDN Broker", "Providing a consolidated service spanning multiple CDNs to CDN customers"},
	RoleMECProvider:      {"MEC Provider", "Providing MEC servers that host CDN domains"},
}

// AllRoles lists every role in Table 2 order.
func AllRoles() []Role {
	return []Role{
		RoleCellularProvider, RoleCDNProvider, RoleDNSProvider,
		RoleWebProvider, RoleCloudProvider, RoleCDNBroker, RoleMECProvider,
	}
}

// String returns the role's display name.
func (r Role) String() string {
	if info, ok := roleInfo[r]; ok {
		return info.name
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Duty returns the role's responsibility as described in Table 2.
func (r Role) Duty() string {
	if info, ok := roleInfo[r]; ok {
		return info.duty
	}
	return ""
}
