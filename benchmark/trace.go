package main

import (
	"bufio"
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/meccdn/meccdn/internal/dnsserver"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
)

// layer names one boundary the traced run records spans at. The
// layers are the repository's modules as one query crosses them.
type layer uint8

const (
	layerQuery layer = iota // root: one replayed query, packet in to span finished
	layerUnpack
	layerTelemetry // Hub.BeginAddr and Hub.Finish
	layerMetrics
	layerCache
	layerStub // includes the upstream exchange with the C-DNS
	layerZone
	layerForward // includes the upstream exchange with the provider
	layerPack
	numLayers
)

var layerNames = [numLayers]string{
	"query", "dnswire.unpack", "telemetry.hub", "dnsserver.metrics", "dnsserver.cache",
	"dnsserver.stub", "dnsserver.zone", "dnsserver.forward", "dnswire.pack",
}

// pluginLayers maps the L-DNS chain's plugins, by Name, to layers.
var pluginLayers = map[string]layer{
	"metrics": layerMetrics, "cache": layerCache, "stub": layerStub, "zone": layerZone, "forward": layerForward,
}

// span is one interval at a layer boundary. Times are ns since the
// tracer's base; parent indexes the span that caused this one, -1 for
// a root; the spans of one query share its index.
type span struct {
	start, end int64
	query      int32
	parent     int32
	layer      layer
}

// tracer records spans in memory on one goroutine.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32 // stack of spans not yet ended
	query int32
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) beginAt(l layer, ts int64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: ts, query: t.query, parent: parent, layer: l})
	t.open = append(t.open, id)
	return id
}

// endAt ends span id, which must be the innermost open one.
func (t *tracer) endAt(id int32, ts int64) {
	t.spans[id].end = ts
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) begin(l layer) int32 { return t.beginAt(l, t.now()) }
func (t *tracer) end(id int32)        { t.endAt(id, t.now()) }

// selfTimes returns, per span, its duration minus the part its child
// spans cover. Spans come from one goroutine, so children nest inside
// their parent and never overlap each other.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
	}
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

// layerTotals is the aggregate of one layer over a traced run.
type layerTotals struct {
	spans     int
	selfNs    int64
	inclusive int64
}

func aggregate(spans []span) [numLayers]layerTotals {
	var out [numLayers]layerTotals
	self := selfTimes(spans)
	for i := range spans {
		l := &out[spans[i].layer]
		l.spans++
		l.selfNs += self[i]
		l.inclusive += spans[i].end - spans[i].start
	}
	return out
}

// timing is the benchmark-owned plugin interleaved before each plugin
// of the chain: its span is everything the plugin after it does.
type timing struct {
	t *tracer
	l layer
}

func (p timing) Name() string { return "trace:" + layerNames[p.l] }

func (p timing) ServeDNS(ctx context.Context, w dnsserver.ResponseWriter, r *dnsserver.Request, next dnsserver.Handler) (dnswire.Rcode, error) {
	id := p.t.begin(p.l)
	rc, err := next.ServeDNS(ctx, w, r)
	p.t.end(id)
	return rc, err
}

// tracedChain is the same plugin instances with a timing plugin
// before each one.
func tracedChain(plugins []dnsserver.Plugin, t *tracer) (dnsserver.Handler, error) {
	var chain []dnsserver.Plugin
	for _, p := range plugins {
		l, ok := pluginLayers[p.Name()]
		if !ok {
			return nil, fmt.Errorf("no trace layer for plugin %q", p.Name())
		}
		chain = append(chain, timing{t, l}, p)
	}
	return dnsserver.Chain(chain...), nil
}

// replayWriter is the benchmark-owned ResponseWriter of the in-process
// replays. Like the server's UDP writer it takes wire images as they
// are (WireWriter, OwnedWireWriter), packs messages with AppendPack,
// and tracks whether a response was written; it counts which way each
// reply came.
type replayWriter struct {
	t     *tracer // nil: untraced
	buf   []byte
	size  int
	wrote bool

	wireWrites, msgWrites uint64
}

func (w *replayWriter) reset(size int) { w.size, w.wrote = size, false }
func (w *replayWriter) Written() bool  { return w.wrote }
func (w *replayWriter) WireSize() int  { return w.size }

func (w *replayWriter) WriteWire(wire []byte) error {
	if w.wrote {
		return nil
	}
	w.buf = append(w.buf[:0], wire...)
	w.wrote = true
	w.wireWrites++
	return nil
}

func (w *replayWriter) WriteWireOwned(buf []byte, n int) error {
	if !w.wrote {
		w.wrote = true
		w.wireWrites++
	}
	dnswire.PutBuffer(buf)
	return nil
}

func (w *replayWriter) WriteMsg(m *dnswire.Message) error {
	if w.wrote {
		return nil
	}
	var id int32
	if w.t != nil {
		id = w.t.begin(layerPack)
	}
	wire, err := m.AppendPack(w.buf[:0])
	if w.t != nil {
		w.t.end(id)
	}
	if err != nil {
		return err
	}
	if len(wire) > w.size {
		return fmt.Errorf("%d-byte reply exceeds the %d-byte payload limit", len(wire), w.size)
	}
	w.buf = wire
	w.wrote = true
	w.msgWrites++
	return nil
}

// replayClient is the source address replayed queries claim.
var replayClient = netip.MustParseAddrPort("127.0.0.1:53535")

// replayStats is what one in-process replay measured.
type replayStats struct {
	queries               int
	ns                    int64
	allocs                uint64
	wireWrites, msgWrites uint64
}

func (r replayStats) nsPerQuery() float64     { return float64(r.ns) / float64(r.queries) }
func (r replayStats) allocsPerQuery() float64 { return float64(r.allocs) / float64(r.queries) }

// replay runs the stream's first positions through the L-DNS chain on
// the calling goroutine, the way handlePacket does: UnpackQuery →
// Hub.BeginAddr → ResolveTo → Hub.Finish. It stops after limit queries
// or when budget is spent, whichever is first. hub nil replays with
// telemetry off; tr non-nil records spans.
func replay(s *site, st *stream, limit int, budget time.Duration, hub *telemetry.Hub, tr *tracer) (replayStats, error) {
	chain := s.ldns.Handler
	if tr != nil {
		var err error
		if chain, err = tracedChain(s.plugins, tr); err != nil {
			return replayStats{}, err
		}
	}
	w := &replayWriter{t: tr, buf: make([]byte, 0, dnswire.MaxMessageSize)}
	intern := dnswire.NewNameIntern(0)
	var msg dnswire.Message
	var req dnsserver.Request
	var res replayStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := 0; i < limit; i++ {
		if i&255 == 0 && time.Since(begin) > budget {
			break
		}
		pkt := st.query(st.at(i))
		var root, id int32
		var ts int64
		if tr != nil {
			tr.query = int32(i)
			ts = tr.now()
			root = tr.beginAt(layerQuery, ts)
			id = tr.beginAt(layerUnpack, ts)
		}
		if err := msg.UnpackQuery(pkt, intern); err != nil {
			return res, fmt.Errorf("replay: unpacking position %d: %w", i, err)
		}
		if tr != nil {
			ts = tr.now()
			tr.endAt(id, ts)
			id = tr.beginAt(layerTelemetry, ts)
		}
		size := dnswire.MaxUDPSize
		if opt, ok := msg.OPT(); ok {
			if adv := int(opt.UDPSize()); adv > size {
				size = adv
			}
		}
		w.reset(size)
		req = dnsserver.Request{Msg: &msg, Client: replayClient, Transport: "udp"}
		ctx := context.Background()
		var sp *telemetry.Span
		if hub != nil {
			sp = hub.BeginAddr(req.Name(), req.Type().String(), req.Transport, req.Client)
			ctx = telemetry.ContextWith(ctx, sp)
		}
		if tr != nil {
			tr.end(id)
		}
		rcode := dnsserver.ResolveTo(ctx, chain, w, &req)
		if tr != nil {
			id = tr.begin(layerTelemetry)
		}
		hub.Finish(sp, rcode.String())
		if tr != nil {
			ts = tr.now()
			tr.endAt(id, ts)
			tr.endAt(root, ts)
		}
		if rcode != dnswire.RcodeSuccess {
			return res, fmt.Errorf("replay: position %d answered %v", i, rcode)
		}
		res.queries++
	}
	res.ns = int64(time.Since(begin))
	runtime.ReadMemStats(&m1)
	res.allocs = m1.Mallocs - m0.Mallocs
	res.wireWrites, res.msgWrites = w.wireWrites, w.msgWrites
	if res.queries == 0 {
		return res, fmt.Errorf("replay: no query fit in %v", budget)
	}
	return res, nil
}

// traceFileQueries is how many queries' spans the trace file holds in
// full. All spans stay in memory and go into the per-layer totals; the
// file would run to hundreds of megabytes with every one written out.
const traceFileQueries = 2000

// writeTrace writes the traced run to dir/trace-<workload>.json: the
// per-layer totals over every span, then the complete span trees of
// the first traceFileQueries queries, one span per line as
// [query, id, parent, layer, start_ns, end_ns].
func writeTrace(dir, workload string, seed int64, queries int, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\n\"workload\": %q,\n\"seed\": %d,\n\"queries\": %d,\n\"layers\": [\n", workload, seed, queries)
	totals := aggregate(spans)
	for l, t := range totals {
		sep := ","
		if l == len(totals)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "  {\"layer\": %d, \"name\": %q, \"spans\": %d, \"self_ns\": %d, \"inclusive_ns\": %d}%s\n",
			l, layerNames[l], t.spans, t.selfNs, t.inclusive, sep)
	}
	fmt.Fprintf(w, "],\n\"span_fields\": [\"query\", \"id\", \"parent\", \"layer\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n")
	first := true
	for i := range spans {
		sp := &spans[i]
		if sp.query >= traceFileQueries {
			break
		}
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "  [%d, %d, %d, %d, %d, %d]", sp.query, i, sp.parent, sp.layer, sp.start, sp.end)
	}
	fmt.Fprint(w, "\n]\n}\n")
	return w.Flush()
}
