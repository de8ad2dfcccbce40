package telemetry

import (
	"encoding/json"
	"io"
	"net/netip"
	"sync"
	"time"
)

// HopRecord is one span hop rendered for the query log.
type HopRecord struct {
	Layer   string `json:"layer"`
	Note    string `json:"note,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Record is one sampled query in the structured log: a dnstap-style
// line carrying the query identity, its outcome, and the hop
// decomposition of where its latency went.
type Record struct {
	Time      time.Time   `json:"time"`
	Name      string      `json:"name"`
	Type      string      `json:"type"`
	Client    string      `json:"client,omitempty"`
	Transport string      `json:"transport,omitempty"`
	Rcode     string      `json:"rcode"`
	Path      string      `json:"path"`
	DurUS     int64       `json:"dur_us"`
	Hops      []HopRecord `json:"hops,omitempty"`
}

// QueryLog is a bounded ring of sampled query records. Writers never
// block, and a sampled query allocates nothing: each ring slot keeps
// the backing arrays of its record's hops and name for the next record,
// and a span's client address is kept as it is; the name and the
// address are rendered only when the log is read. So a record keeps
// nothing of its query's alive (a question name may share its bytes
// with a whole chunk of other names: dnswire.NameIntern). Once the ring is full, the oldest record is overwritten and
// counted as dropped. Draining (the admin /querylog endpoint) empties
// the ring.
type QueryLog struct {
	mu      sync.Mutex
	ring    []logSlot
	next    int
	full    bool
	added   uint64
	dropped uint64
}

// logSlot is one ring slot: a record whose Name is still to be
// rendered from name, and whose Client, when client is valid, from
// client.
type logSlot struct {
	rec    Record
	name   []byte
	client netip.AddrPort
}

// NewQueryLog returns a log retaining up to capacity records
// (capacity <= 0 means 1024).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &QueryLog{ring: make([]logSlot, 0, capacity)}
}

// slotLocked returns the slot the next record goes in, overwriting the
// oldest when full. Its hops keep their backing array.
func (l *QueryLog) slotLocked() *logSlot {
	l.added++
	if n := len(l.ring); n < cap(l.ring) {
		l.ring = l.ring[:n+1] // a drained slot's hop array comes back with it
		return &l.ring[n]
	}
	l.full = true
	l.dropped++
	slot := &l.ring[l.next]
	l.next = (l.next + 1) % cap(l.ring)
	return slot
}

// addSpan appends the record of an ended span, as RecordFromSpan renders
// it but with the name copied and the client left unrendered, with the
// span lock held.
func (l *QueryLog) addSpan(s *Span, rcode, path string, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := l.slotLocked()
	s.fillLocked(&slot.rec, rcode, path, now)
	slot.rec.Name = ""
	slot.name = append(slot.name[:0], s.name...)
	slot.client = s.client
}

// Len returns the number of retained records.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Stats returns how many records were ever added and how many were
// overwritten before being drained.
func (l *QueryLog) Stats() (added, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.added, l.dropped
}

// Drain returns the retained records oldest-first, each with its name
// and client rendered and hops of its own, and empties the log.
func (l *QueryLog) Drain() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.ring))
	take := func(slots []logSlot) {
		for _, slot := range slots {
			rec := slot.rec
			rec.Name = string(slot.name)
			rec.Hops = append([]HopRecord(nil), slot.rec.Hops...)
			if slot.client.IsValid() {
				rec.Client = slot.client.String()
			}
			out = append(out, rec)
		}
	}
	if l.full {
		take(l.ring[l.next:])
		take(l.ring[:l.next])
	} else {
		take(l.ring)
	}
	l.ring = l.ring[:0]
	l.next = 0
	l.full = false
	return out
}

// WriteJSONL drains the log and writes one JSON object per line.
func (l *QueryLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range l.Drain() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// RecordFromSpan renders an ended span (plus its response rcode and
// classified path) into a log record stamped with the wall time now.
func RecordFromSpan(sp *Span, rcode, path string, now time.Time) Record {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var rec Record
	sp.fillLocked(&rec, rcode, path, now)
	if sp.client.IsValid() {
		rec.Client = sp.client.String()
	}
	return rec
}

// fillLocked renders the span, under its lock, into rec — all but
// Client, which is the caller's — appending the hops to rec.Hops' backing
// array.
func (s *Span) fillLocked(rec *Record, rcode, path string, now time.Time) {
	hops := rec.Hops[:0]
	for _, h := range s.hops {
		hops = append(hops, HopRecord{Layer: h.Layer, Note: h.Note, StartUS: h.Start.Microseconds(), DurUS: h.Dur.Microseconds()})
	}
	*rec = Record{
		Time:      now,
		Name:      s.name,
		Type:      s.qtype,
		Transport: s.transport,
		Rcode:     rcode,
		Path:      path,
		DurUS:     s.totalLocked().Microseconds(),
		Hops:      hops,
	}
}
