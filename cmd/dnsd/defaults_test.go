package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsd"
	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// buildFrom parses args and builds the daemon they describe.
func buildFrom(t *testing.T, args ...string) *dnsd.Daemon {
	t.Helper()
	cfg, err := parse(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dnsd.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func query(name string) *dnswire.Message {
	q := new(dnswire.Message)
	q.SetQuestion(name, dnswire.TypeA)
	q.ID = 0x4242
	return q
}

// TestDefaultsPinned builds dnsd from deployment flags alone and reads,
// through the built daemon's parts, the value each tuning flag's
// default gave it: the cache's size and shards, its refresh-ahead and
// serve-stale windows, the upstream cooldown, the UDP queue bound, the
// TCP connection cap, the ingress sockets, the query log's ring, the
// probe hysteresis and the mesh announce cadence. The probe timeout and
// the drain budget are durations of a wait and have no reading short
// of waiting them out.
func TestDefaultsPinned(t *testing.T) {
	zonePath := filepath.Join(t.TempDir(), "pin.zone")
	if err := os.WriteFile(zonePath, []byte("* 60 IN A 192.0.2.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The upstream takes one query, holds it until released, then
	// answers it with its own bytes, QR set.
	up, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		buf := make([]byte, 4096)
		n, from, err := up.ReadFrom(buf)
		if err != nil {
			return
		}
		close(held)
		<-release
		buf[2] |= 0x80
		up.WriteTo(buf[:n], from)
	}()

	d := buildFrom(t, "-listen", "127.0.0.1:0", "-forward", up.LocalAddr().String(),
		"-zone", "pin.test.="+zonePath, "-cdn-domain", "cdn.pin.test.", "-mesh", "127.0.0.1:0")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	procs := runtime.GOMAXPROCS(0)

	t.Run("cache", func(t *testing.T) {
		if d.Cache.PrefetchFrac != 0.1 || d.Cache.MaxStale != time.Hour {
			t.Errorf("prefetch window %v, serve-stale window %v; want 0.1, 1h", d.Cache.PrefetchFrac, d.Cache.MaxStale)
		}
		// Twice the capacity in distinct names fills every shard.
		for i := 0; i < 8192; i++ {
			dnsserver.Resolve(context.Background(), d.Server.Handler,
				&dnsserver.Request{Msg: query(fmt.Sprintf("n%d.pin.test.", i))})
		}
		if st := d.Cache.Stats(); st.Shards != 16 || st.Entries != 4096 {
			t.Errorf("cache holds %d entries over %d shards, want 4096 over 16", st.Entries, st.Shards)
		}
	})

	t.Run("sockets", func(t *testing.T) {
		if n := d.Server.NumSockets(); n != procs {
			t.Errorf("%d ingress sockets, want one per core (%d)", n, procs)
		}
	})

	t.Run("udp queue", func(t *testing.T) {
		// One query waiting on the upstream takes 1 / (128 × GOMAXPROCS)
		// of the queue.
		c, err := net.Dial("udp", d.Server.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wire, _ := query("elsewhere.example.").Pack()
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatal("the query never reached the upstream")
		}
		if got, want := d.Server.IngressLoad(), 1/float64(128*procs); got != want {
			t.Errorf("ingress load with one query waiting = %v, want %v", got, want)
		}
		close(release)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 512)); err != nil {
			t.Errorf("the released query got no reply: %v", err)
		}
	})

	t.Run("tcp cap", func(t *testing.T) {
		wire, _ := query("www.pin.test.").Pack()
		dial := func() net.Conn {
			c, err := net.Dial("tcp", d.Server.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			c.SetDeadline(time.Now().Add(5 * time.Second))
			return c
		}
		for i := 0; i < 512; i++ {
			c := dial()
			if err := dnswire.WriteTCP(c, wire); err != nil {
				t.Fatal(err)
			}
			if _, err := dnswire.ReadTCP(c); err != nil {
				t.Fatalf("connection %d: %v", i+1, err)
			}
		}
		c := dial()
		dnswire.WriteTCP(c, wire)
		if _, err := dnswire.ReadTCP(c); err == nil {
			t.Error("connection 513 was served")
		}
		if n := d.Server.RejectedConns(); n != 1 {
			t.Errorf("%d connections refused, want 1", n)
		}
	})

	t.Run("query log", func(t *testing.T) {
		d.Hub.SampleEvery = 1
		for i := 0; i < 1100; i++ {
			d.Hub.Finish(d.Hub.BeginAddr("x.pin.test.", "A", "udp", netip.AddrPort{}), "NOERROR")
		}
		if n := d.Hub.Log.Len(); n != 1024 {
			t.Errorf("query log holds %d records, want 1024", n)
		}
	})

	t.Run("mesh", func(t *testing.T) {
		if !strings.Contains(strings.Join(d.Describe(), "\n"), "announcing to 0 peer(s) every 2s") {
			t.Errorf("no 2s announce cadence in %q", d.Describe())
		}
	})

	t.Run("probe hysteresis", func(t *testing.T) {
		d := buildFrom(t, "-forward", "192.0.2.1:53", "-probe-interval", "1s")
		if hc := d.Health.Config(); hc.DownAfter != 3 || hc.UpAfter != 2 {
			t.Errorf("down after %d failures, up after %d successes; want 3, 2", hc.DownAfter, hc.UpAfter)
		}
	})

	t.Run("cooldown", func(t *testing.T) {
		// A closed port refuses every exchange at once. After 3
		// failures the upstream is put last for 5s: a query inside the
		// window counts a skip, one at its end does not.
		closed, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closed.Close()
		skipsAt := func(after time.Duration) uint64 {
			d := buildFrom(t, "-forward", closed.LocalAddr().String())
			clock := &vclock.Fixed{Time: time.Second}
			d.Forward.Clock = clock
			ask := func() {
				dnsserver.Resolve(context.Background(), dnsserver.Chain(d.Forward), &dnsserver.Request{Msg: query("x.example.")})
			}
			for i := 0; i < 3; i++ {
				ask()
			}
			if n := d.Forward.Stats().Skipped; n != 0 {
				t.Fatalf("upstream skipped %d times within its first 3 failures", n)
			}
			clock.Time += after
			ask()
			return d.Forward.Stats().Skipped
		}
		if n := skipsAt(5*time.Second - 1); n != 1 {
			t.Errorf("upstream skipped %d times just inside 5s after its third failure, want 1", n)
		}
		if n := skipsAt(5 * time.Second); n != 0 {
			t.Errorf("upstream skipped %d times 5s after its third failure, want 0", n)
		}
	})
}
