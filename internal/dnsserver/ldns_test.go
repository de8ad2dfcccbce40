package dnsserver

import (
	"reflect"
	"testing"
)

func TestLDNSPluginsOrder(t *testing.T) {
	names := func(ps []Plugin) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.Name())
		}
		return out
	}
	router := pluginize(answerHandler("192.0.2.1")) // stands in for a *cdn.Router
	full := LDNS{
		Forward: &Forward{},
		Router:  router,
		Zones:   NewZonePlugin(),
		Stub:    NewStub(nil),
		Cache:   NewCache(nil),
		ECS:     &ECS{},
		Shed:    &LoadShed{},
		Metrics: NewMetrics(),
	}
	want := []string{"metrics", "loadshed", "ecs", "cache", "stub", "zone", router.Name(), "forward"}
	if got := names(full.Plugins()); !reflect.DeepEqual(got, want) {
		t.Errorf("full chain = %v, want %v", got, want)
	}
	// Unset links are skipped, not left as holes: the dnsd shape with
	// neither shedding, ECS stamping nor an embedded router.
	dnsd := LDNS{Metrics: full.Metrics, Cache: full.Cache, Zones: full.Zones, Forward: full.Forward}
	if got, want := names(dnsd.Plugins()), []string{"metrics", "cache", "zone", "forward"}; !reflect.DeepEqual(got, want) {
		t.Errorf("partial chain = %v, want %v", got, want)
	}
	if got := (LDNS{}).Plugins(); len(got) != 0 {
		t.Errorf("empty LDNS yields %v", got)
	}
}
