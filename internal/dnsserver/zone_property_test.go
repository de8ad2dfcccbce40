package dnsserver

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// randomLabel builds a plausible DNS label from a seed byte.
func randomLabel(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	n := 1 + rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet)-1)]
	}
	// Avoid leading '-' which some parsers dislike; keep it simple.
	if b[0] == '-' {
		b[0] = 'a'
	}
	return string(b)
}

func randomName(rng *rand.Rand, origin string) string {
	depth := 1 + rng.Intn(3)
	name := ""
	for i := 0; i < depth; i++ {
		name += randomLabel(rng) + "."
	}
	return name + origin
}

// TestZoneAddedRecordsAlwaysFound is the core zone invariant: any
// record added is returned by a lookup for its exact name and type.
func TestZoneAddedRecordsAlwaysFound(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		z := NewZone("prop.test.")
		type key struct{ name string }
		added := map[key]netip.Addr{}
		for i := 0; i < int(count%40)+1; i++ {
			name := randomName(rng, "prop.test.")
			addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(254)) + 1})
			if err := z.AddA(name, 60, addr); err != nil {
				return false
			}
			added[key{dnswire.CanonicalName(name)}] = addr
		}
		for k, addr := range added {
			res, answers, _ := z.View().Lookup(k.name, dnswire.TypeA, nil)
			if res != LookupSuccess {
				t.Logf("lookup %q: %v", k.name, res)
				return false
			}
			found := false
			for _, rr := range answers {
				if a, ok := rr.RR.(*dnswire.A); ok && a.Addr == addr {
					found = true
				}
			}
			if !found {
				t.Logf("added %v for %q not in answers", addr, k.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestZoneLookupNeverPanics throws structured garbage at Lookup.
func TestZoneLookupNeverPanics(t *testing.T) {
	z := testZone(t)
	f := func(raw []byte, typ uint16) bool {
		name := string(raw)
		_, _, _ = z.View().Lookup(name, dnswire.Type(typ), nil)
		_, _, _ = z.View().Lookup(name+".mycdn.ciab.test.", dnswire.Type(typ), nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestZoneLookupClassifiesConsistently: a name either exists (Success
// or NoData for some type) or does not (NXDomain for every type) —
// never both.
func TestZoneLookupClassifiesConsistently(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z := NewZone("c.test.")
		names := make([]string, 0, 10)
		for i := 0; i < 10; i++ {
			name := randomName(rng, "c.test.")
			if err := z.AddA(name, 60, netip.MustParseAddr("192.0.2.1")); err != nil {
				return false
			}
			names = append(names, dnswire.CanonicalName(name))
		}
		for _, name := range names {
			resA, _, _ := z.View().Lookup(name, dnswire.TypeA, nil)
			resTXT, _, _ := z.View().Lookup(name, dnswire.TypeTXT, nil)
			if resA != LookupSuccess {
				return false
			}
			// The same name must not be NXDOMAIN for another type.
			if resTXT == LookupNXDomain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestServerResolveGarbageQueries feeds random (but unpackable)
// queries through a full chain; the server must answer, never panic.
func TestServerResolveGarbageQueries(t *testing.T) {
	h := Chain(NewZonePlugin(testZone(t)))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := new(dnswire.Message)
		q.SetQuestion(randomName(rng, fmt.Sprintf("%s.", randomLabel(rng))), dnswire.Type(rng.Intn(300)))
		q.ID = uint16(rng.Intn(1 << 16))
		resp := Resolve(context.Background(), h, &Request{Msg: q, Transport: "test"})
		return resp != nil && resp.ID == q.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
