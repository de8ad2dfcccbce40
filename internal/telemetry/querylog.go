package telemetry

import (
	"encoding/json"
	"io"
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
// block and never allocate beyond the record itself: once the ring is
// full, the oldest record is overwritten and counted as dropped.
// Draining (the admin /querylog endpoint) empties the ring.
type QueryLog struct {
	mu      sync.Mutex
	ring    []Record
	next    int
	full    bool
	added   uint64
	dropped uint64
}

// NewQueryLog returns a log retaining up to capacity records
// (capacity <= 0 means 1024).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &QueryLog{ring: make([]Record, 0, capacity)}
}

// Add appends one record, overwriting the oldest when full.
func (l *QueryLog) Add(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.added++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
		return
	}
	l.full = true
	l.dropped++
	l.ring[l.next] = rec
	l.next = (l.next + 1) % cap(l.ring)
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

// Drain returns the retained records oldest-first and empties the log.
func (l *QueryLog) Drain() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.ring))
	if l.full {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
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
	return sp.recordLocked(rcode, path, now)
}

// recordLocked is RecordFromSpan under the span lock: the hops are
// rendered straight into a slice of their exact length.
func (s *Span) recordLocked(rcode, path string, now time.Time) Record {
	rec := Record{
		Time:      now,
		Name:      s.name,
		Type:      s.qtype,
		Transport: s.transport,
		Rcode:     rcode,
		Path:      path,
		DurUS:     s.totalLocked().Microseconds(),
	}
	if s.client.IsValid() {
		rec.Client = s.client.String()
	}
	rec.Hops = make([]HopRecord, len(s.hops))
	for i, h := range s.hops {
		rec.Hops[i] = HopRecord{Layer: h.Layer, Note: h.Note, StartUS: h.Start.Microseconds(), DurUS: h.Dur.Microseconds()}
	}
	return rec
}
