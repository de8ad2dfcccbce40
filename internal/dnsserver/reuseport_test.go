package dnsserver

import (
	"context"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// TestShardedIngressServes binds several SO_REUSEPORT sockets to one
// port and drives queries from many distinct client sockets, so the
// kernel's flow hash spreads them across the shards; every query must
// be answered regardless of which socket it lands on, and the server
// must drain cleanly with all read loops running.
func TestShardedIngressServes(t *testing.T) {
	srv := startTestServer(t, &Server{Handler: shardChain(t), Sockets: 4})
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
	h := shardChain(t)
	for _, sockets := range []int{0, 1} {
		srv := startTestServer(t, &Server{Handler: h, Sockets: sockets})
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
