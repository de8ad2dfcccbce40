// Package geoip holds the location a C-DNS router records for each
// cache server it registers. No routing policy reads it: clients are
// mapped by the subnet their resolver discloses (ECS) through the
// router's subnet→PoP table, not by a GeoIP lookup.
package geoip

// Location is a point on a simple 2-D plane (units are arbitrary
// "map kilometres").
type Location struct {
	X, Y float64
	// Name labels the location (e.g. "atlanta-campus").
	Name string
}
