package dnsd

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/lpm"
)

// ErrNothingReloadable is Reload's answer when the Config named no
// -zone and no -routes file.
var ErrNothingReloadable = errors.New("nothing reloadable (no -zone/-routes files)")

func (d *Daemon) reloadable() bool { return len(d.zones) > 0 || d.cfg.Routes != "" }

// Reload re-reads every -zone file and the -routes file and publishes
// the new snapshots in place. Serving never pauses: in-flight queries
// finish on the old snapshots, new ones see the new, and a zone keeps
// its identity (so its IXFR delta journal accumulates). It is all or
// nothing: every file is parsed first, and one that does not parse
// leaves every zone, the route table and the cache as they were. Only
// then are the snapshots swapped and the cache flushed — answers
// cached before the swap may cite replaced records.
func (d *Daemon) Reload() error {
	if !d.reloadable() {
		return ErrNothingReloadable
	}
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	if err := d.reload(); err != nil {
		d.reloads.Inc("error")
		return err
	}
	d.reloads.Inc("ok")
	return nil
}

func (d *Daemon) reload() error {
	parsed := make([]*dnsserver.Zone, len(d.zones))
	for i, zone := range d.zones {
		var err error
		if parsed[i], err = parseZone(zone.Origin, d.cfg.Zones[i].Path); err != nil {
			return fmt.Errorf("reloading: %w", err)
		}
	}
	var table *lpm.Table
	if d.cfg.Routes != "" {
		var err error
		if table, err = parseFile(d.cfg.Routes, lpm.ParseRoutes); err != nil {
			return fmt.Errorf("reloading: %w", err)
		}
	}

	for i, zone := range d.zones {
		zone.Replace(parsed[i])
		d.zoneSwaps.Inc()
	}
	if table != nil {
		d.Router.SetRoutes(table)
		d.routeSwaps.Inc()
	}
	d.Cache.Flush()
	return nil
}

// parseFile opens path and parses it, naming the file in a parse
// error (an open error already does).
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var none T
		return none, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func parseZone(origin, path string) (*dnsserver.Zone, error) {
	return parseFile(path, func(r io.Reader) (*dnsserver.Zone, error) { return dnsserver.ParseZone(origin, r) })
}
