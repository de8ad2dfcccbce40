package dnsclient

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// spoofs builds, for a packed query, the datagrams an off-path attacker
// who can reach the client's socket might land ahead of the real reply.
// Each carries a poisoned answer; only the last field of its name says
// why it must not be believed.
func spoofs(t *testing.T, query []byte) map[string][]byte {
	t.Helper()
	poison := func(mutate func(*dnswire.Message)) []byte {
		return answerFor(t, query, func(m *dnswire.Message) {
			m.Answers[0].(*dnswire.A).Addr = netip.MustParseAddr("203.0.113.66")
			if mutate != nil {
				mutate(m)
			}
		})
	}
	wrongID := poison(func(m *dnswire.Message) { m.ID ^= 0x0100 })
	notResponse := poison(func(m *dnswire.Message) { m.Response = false })
	otherName := poison(func(m *dnswire.Message) { m.Questions[0].Name = "evil." + m.Questions[0].Name })
	otherType := poison(func(m *dnswire.Message) { m.Questions[0].Type = dnswire.TypeAAAA })
	noQuestion := poison(func(m *dnswire.Message) { m.Questions = nil })
	// The question's name replaced by a pointer: right ID, a response,
	// and a question that may even decode — but not the bytes sent.
	compressed := append([]byte(nil), query[:12]...)
	compressed[2] |= qrBit
	compressed = append(compressed, 0xC0, 0x04, 0, 1, 0, 1)
	return map[string][]byte{
		"wrong ID": wrongID, "QR clear": notResponse, "other name": otherName,
		"other type": otherType, "no question": noQuestion, "compressed question": compressed,
		"short": query[:7],
	}
}

func TestCheckReply(t *testing.T) {
	q := new(dnswire.Message)
	q.SetQuestion("Video.cdn.test.", dnswire.TypeA)
	q.ID = 0xBEEF
	query, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for what, spoof := range spoofs(t, query) {
		if err := checkReply(query, spoof); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	for what, mutate := range map[string]func(*dnswire.Message){
		"echo":      nil,
		"0x20 case": func(m *dnswire.Message) { m.Questions[0].Name = "vIDEO.CDN.tEST." },
		"two questions": func(m *dnswire.Message) {
			m.Questions = append(m.Questions, dnswire.Question{Name: "x.", Type: dnswire.TypeA, Class: dnswire.ClassINET})
		},
		"truncated": func(m *dnswire.Message) { m.Truncated, m.Answers = true, nil },
	} {
		if err := checkReply(query, answerFor(t, query, mutate)); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	// A query that asked nothing is answered by anything with its ID.
	empty, _ := (&dnswire.Message{ID: 7}).Pack()
	reply, _ := (&dnswire.Message{ID: 7, Response: true}).Pack()
	if err := checkReply(empty, reply); err != nil {
		t.Errorf("empty question section: %v", err)
	}
	// Only ASCII letters fold: '@' and '`' differ in the same bit.
	at, _ := (&dnswire.Message{ID: 7, Questions: []dnswire.Question{{Name: "a@b.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}}).Pack()
	tick, _ := (&dnswire.Message{ID: 7, Response: true, Questions: []dnswire.Question{{Name: "a`b.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}}).Pack()
	if err := checkReply(at, tick); !errors.Is(err, ErrQuestionMismatch) {
		t.Errorf("'@' against '`': err = %v, want ErrQuestionMismatch", err)
	}
}

// TestSpoofedDatagramsAreSkipped: forged datagrams arriving on the
// pooled socket ahead of the real reply — a flood with guessed IDs,
// and ones with the right ID that are not the answer to this question —
// are passed over inside the one attempt: the exchange returns the real
// answer, asks the upstream once, and keeps its socket (RFC 5452 §9).
func TestSpoofedDatagramsAreSkipped(t *testing.T) {
	var asked atomic.Int32
	up := listenUpstream(t, "127.0.0.1:0", func(u *fakeUpstream, from netip.AddrPort, query []byte) {
		asked.Add(1)
		forged := spoofs(t, query)
		// Few enough that the socket's receive buffer holds them and
		// the real reply behind them: dropping that would be honest
		// UDP loss, not starvation.
		id := uint16(query[0])<<8 | uint16(query[1])
		for i := uint16(1); i <= 100; i++ {
			guess := append([]byte(nil), forged["wrong ID"]...)
			guess[0], guess[1] = byte((id+i)>>8), byte(id+i)
			u.send(t, from, guess)
		}
		for _, spoof := range forged {
			u.send(t, from, spoof)
		}
		u.send(t, from, answerFor(t, query, nil))
	})
	tr := &NetTransport{}
	defer tr.Close()
	c := &Client{Transport: tr, Timeout: 2 * time.Second, Retries: 1}
	for i := 0; i < 3; i++ {
		resp, err := c.Query(context.Background(), up.addr, "Spoofed.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Answers[0].(*dnswire.A).Addr.String(); got != "192.0.2.53" {
			t.Fatalf("exchange %d answered %s: a forged datagram was believed", i, got)
		}
	}
	if n := asked.Load(); n != 3 {
		t.Errorf("upstream was asked %d times for 3 exchanges: a forged datagram failed an attempt", n)
	}
	wantStats(t, tr, SocketStats{Dialed: 1, Reused: 2, Idle: 1})
}
