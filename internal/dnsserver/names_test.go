package dnsserver

import (
	"strings"
	"testing"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/vclock"
)

// TestPluginNames pins every plugin's registry name; metrics and
// error messages key off these.
func TestPluginNames(t *testing.T) {
	plugins := map[string]Plugin{
		"zone":     NewZonePlugin(),
		"cache":    NewCache(&vclock.Fixed{}),
		"forward":  &Forward{},
		"stub":     NewStub(&dnsclient.Client{}),
		"split":    &Split{},
		"ecs":      &ECS{},
		"loadshed": &LoadShed{},
		"metrics":  NewMetrics(),
	}
	for want, p := range plugins {
		if p.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", p, p.Name(), want)
		}
	}
}

func TestCacheString(t *testing.T) {
	c := NewCache(&vclock.Fixed{})
	if s := c.String(); !strings.Contains(s, "cache{") {
		t.Errorf("String() = %q", s)
	}
}
