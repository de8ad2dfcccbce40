package dnsserver

// Tests for the SO_REUSEPORT-sharded UDP ingress and the TCP
// connection cap. The sharding tests are written to pass on every
// platform: where SO_REUSEPORT is unsupported the server collapses to
// one socket, and the assertions key off reusePortSupported.

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// startShardedServer starts a server with the given socket count on an
// ephemeral port and returns it (callers own shutdown).
func startShardedServer(t *testing.T, sockets int) *Server {
	t.Helper()
	z := NewZone("shard.test.")
	if err := z.AddA("www.shard.test.", 60, netip.MustParseAddr("192.0.2.61")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewZonePlugin(z)), Sockets: sockets}
	if err := srv.Start(); err != nil {
		t.Fatalf("starting %d-socket server: %v", sockets, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestShardedIngressServes binds several SO_REUSEPORT sockets to one
// port and drives queries from many distinct client sockets, so the
// kernel's flow hash spreads them across the shards; every query must
// be answered regardless of which socket it lands on, and the server
// must drain cleanly with all read loops running.
func TestShardedIngressServes(t *testing.T) {
	srv := startShardedServer(t, 4)
	want := 1
	if reusePortSupported {
		want = 4
	}
	if got := srv.NumSockets(); got != want {
		t.Fatalf("NumSockets() = %d, want %d", got, want)
	}
	addr := srv.LocalAddr()
	for i := 0; i < 16; i++ {
		// A fresh client per query means a fresh source port, i.e. a
		// fresh flow hash.
		resp, err := realClient().Query(context.Background(), addr, "www.shard.test.", dnswire.TypeA)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d: answers = %v", i, resp.Answers)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v, want a clean drain", err)
	}
}

// TestSingleSocketFallback pins the collapse rule: Sockets of zero or
// one — and any value on platforms without SO_REUSEPORT — serve
// through the classic single socket.
func TestSingleSocketFallback(t *testing.T) {
	for _, sockets := range []int{0, 1} {
		srv := startShardedServer(t, sockets)
		if got := srv.NumSockets(); got != 1 {
			t.Errorf("Sockets=%d: NumSockets() = %d, want 1", sockets, got)
		}
		resp, err := realClient().Query(context.Background(), srv.LocalAddr(), "www.shard.test.", dnswire.TypeA)
		if err != nil {
			t.Fatalf("Sockets=%d: %v", sockets, err)
		}
		if len(resp.Answers) != 1 {
			t.Errorf("Sockets=%d: answers = %v", sockets, resp.Answers)
		}
	}
}

// dialTCPQuery opens a raw TCP connection to addr; the returned query
// function sends one question and waits for the length-prefixed reply.
func dialTCPQuery(t *testing.T, addr netip.AddrPort) (net.Conn, func() error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, func() error {
		q := new(dnswire.Message)
		q.SetQuestion("www.shard.test.", dnswire.TypeA)
		q.ID = 7
		wire, err := q.Pack()
		if err != nil {
			return err
		}
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		if err := dnswire.WriteTCP(conn, wire); err != nil {
			return err
		}
		resp, err := dnswire.ReadTCP(conn)
		if err != nil {
			return err
		}
		dnswire.PutBuffer(resp)
		return nil
	}
}

// TestTCPMaxConns pins the connection cap: with maxConns held open by
// idle connections, the next accept is closed immediately (counted on
// the reject counter), and closing one of the idle
// connections frees a slot for a new client.
func TestTCPMaxConns(t *testing.T) {
	z := NewZone("shard.test.")
	if err := z.AddA("www.shard.test.", 60, netip.MustParseAddr("192.0.2.61")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain(NewZonePlugin(z)), maxConns: 2}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.LocalAddr()

	// Two connections fill the cap; a query on each proves they are
	// registered and being served, then they sit idle holding slots.
	conn1, query1 := dialTCPQuery(t, addr)
	if err := query1(); err != nil {
		t.Fatal(err)
	}
	_, query2 := dialTCPQuery(t, addr)
	if err := query2(); err != nil {
		t.Fatal(err)
	}

	// The third connection must be closed at accept: the read sees EOF
	// without a response ever arriving.
	conn3, query3 := dialTCPQuery(t, addr)
	if err := query3(); err == nil {
		t.Fatal("query succeeded on a connection beyond maxConns")
	}
	conn3.Close()
	if got := srv.RejectedConns(); got != 1 {
		t.Errorf("RejectedConns() = %d, want 1", got)
	}

	// Closing an idle connection frees its slot (asynchronously, as
	// its handler observes the close).
	conn1.Close()
	waitFor(t, 2*time.Second, func() bool {
		_, query := dialTCPQuery(t, addr)
		return query() == nil
	})
}
