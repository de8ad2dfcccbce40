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

// Cells of meccdn_reload_total.
const (
	reloadOK = iota
	reloadError
)

// Reload re-reads every -zone file and the -routes file and publishes
// the new snapshots in place. Serving never pauses: in-flight queries
// finish on the old snapshots, new ones see the new, and a zone keeps
// its identity; a zone or routes file whose contents did not change
// publishes nothing and is not counted as a swap. It is all or
// nothing: every file is parsed first, and one that does not parse
// leaves every zone, the route table and the cache as they were. Only
// then are the changed snapshots swapped and, if any was, the cache
// flushed — answers cached before the swap may cite replaced records.
func (d *Daemon) Reload() error {
	if !d.reloadable() {
		return ErrNothingReloadable
	}
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	if err := d.reload(); err != nil {
		d.reloads.Inc(reloadError)
		return err
	}
	d.reloads.Inc(reloadOK)
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

	swapped := false
	for i, zone := range d.zones {
		if zone.Replace(parsed[i]) {
			d.zoneSwaps.Inc()
			swapped = true
		}
	}
	if table != nil && !table.Equal(d.Router.Routes()) {
		d.Router.SetRoutes(table)
		d.routeSwaps.Inc()
		swapped = true
	}
	if swapped {
		d.Cache.Flush()
	}
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
