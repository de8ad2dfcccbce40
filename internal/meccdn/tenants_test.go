package meccdn

import (
	"testing"

	"github.com/meccdn/meccdn/internal/cdn"
)

const tenantDomain = "othercdn.example."

func TestMultiTenantSite(t *testing.T) {
	d := deploy(t, 40, nil)
	dep, err := d.site.AddDomain(tenantDomain, d.tb.Net.Node("origin").Addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Caches) != 2 || !dep.CDNS.IsValid() {
		t.Fatalf("deployment = %+v", dep)
	}
	// Publish tenant content at the shared origin so fills work.
	// (The test origin only carries the primary catalog; the tenant
	// lookup itself is DNS-level, so warm the cache directly.)
	obj := "img.site." + tenantDomain
	owner := dep.Router.Ring.Owner(obj)
	for _, c := range dep.Caches {
		if c.Name == owner {
			c.Warm(cdn.Content{Name: obj, Size: 64})
		}
	}

	// Both domains resolve through the SAME MEC DNS address: that is
	// the single shared public ingress.
	resPrimary, err := d.ue.Resolve("video.demo1." + testDomain)
	if err != nil {
		t.Fatal(err)
	}
	resTenant, err := d.ue.Resolve(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !resPrimary.Addr.IsValid() || !resTenant.Addr.IsValid() {
		t.Fatalf("resolutions: primary=%v tenant=%v", resPrimary.Addr, resTenant.Addr)
	}
	if resPrimary.Addr == resTenant.Addr {
		t.Error("tenants share a cache service IP; scopes must be separate")
	}
	// Tenant isolation: the primary router must not know tenant
	// servers and vice versa.
	if d.site.Router.Route(obj, cdn.ClientInfo{}) != nil &&
		d.site.Router.Route(obj, cdn.ClientInfo{}).Server.Name == owner {
		t.Error("primary router routed tenant content to tenant server")
	}
	if _, err := d.site.AddDomain(tenantDomain, d.tb.Net.Node("origin").Addr, 1); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := d.site.AddDomain(testDomain, d.tb.Net.Node("origin").Addr, 1); err == nil {
		t.Error("primary domain accepted as tenant")
	}
}

// TestTenantCDNSOnSiteLink: a tenant's C-DNS sits on the same link as
// the site's own, so moving the link moves a tenant name's resolution
// by exactly as much as the primary's.
func TestTenantCDNSOnSiteLink(t *testing.T) {
	names := []string{"video.demo1." + testDomain, "img.site." + tenantDomain}
	near := resolveAcross(t, 9, nil, names...)
	far := resolveAcross(t, 9, farLink, names...)
	for i, name := range names {
		if got := far[i] - near[i]; got != farExtra {
			t.Errorf("%s: 5ms link added %v, want %v", name, got, farExtra)
		}
	}
}
