package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"highorder/internal/obs"
)

// Span names the benchmark records. Every span is recorded by the
// benchmark's own wrappers around a layer's public API; the program
// records none of them.
const (
	spanClient       = "client.call"
	spanGate         = "gate.handler"
	spanReplica      = "replica.handler"
	spanTwinClassify = "twin.classify"
	spanTwinObserve  = "twin.observe"
	spanStoreProbe   = "store.log_observe"
	spanCodecEncode  = "codec.encode"
	spanCodecDecode  = "codec.decode"
)

// reqHeader carries the benchmark's request id from the load generator
// through the gate (which relays request headers unchanged) to the
// replica, so the spans of one request can be joined.
const reqHeader = "X-Bench-Req"

// handlerWrapper wraps a server's handler before it is served.
type handlerWrapper func(name string, h http.Handler) http.Handler

// noWrap serves handlers untouched: the untraced run measures the
// program without any benchmark code on its request path.
func noWrap(_ string, h http.Handler) http.Handler { return h }

// tracing is the process-wide span switch: while a tracer is installed,
// the handler wrappers and the client record spans into it.
type tracing struct {
	cur atomic.Pointer[obs.Tracer]
}

// tracer returns the installed tracer, or nil when tracing is off (a nil
// tracer records nothing at the cost of a pointer check).
func (t *tracing) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// wrap returns h timed as span name, tagged with the request id header.
func (t *tracing) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.cur.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.StartSpan(name)
		defer sp.End()
		if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			sp.SetArg("req", id)
		}
		if strings.HasSuffix(r.URL.Path, "/observe") {
			sp.SetArg("observe", 1)
		}
		h.ServeHTTP(w, r)
	})
}

// tagTransport stamps the session's current request id on every request
// it carries; one exists per session, and a session runs one request at a
// time.
type tagTransport struct {
	base http.RoundTripper
	id   atomic.Int64
}

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.id.Load()
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	out := req.Clone(req.Context())
	out.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	return t.base.RoundTrip(out)
}

// spanRec is one request's span at one layer.
type spanRec struct {
	dur     time.Duration
	observe bool
}

// requestSpans joins the recorded spans by request id, per layer.
type requestSpans struct {
	client, gate, replica map[int64]spanRec
}

// joinSpans indexes the root spans of the given layers by request id.
func joinSpans(nodes []obs.SpanNode) requestSpans {
	rs := requestSpans{client: map[int64]spanRec{}, gate: map[int64]spanRec{}, replica: map[int64]spanRec{}}
	for _, n := range nodes {
		id, ok := n.Args["req"]
		if !ok {
			continue
		}
		rec := spanRec{dur: n.Duration, observe: n.Args["observe"] == 1}
		switch n.Name {
		case spanClient:
			rs.client[id] = rec
		case spanGate:
			rs.gate[id] = rec
		case spanReplica:
			rs.replica[id] = rec
		}
	}
	return rs
}

// layerTimes are the per-request layer durations derived from the spans,
// in microseconds.
type layerTimes struct {
	handlerClassify, handlerObserve  []float64
	transport, gateHandler, gateSelf []float64
	// clientTotal and handlerTotal sum the client round trips and the
	// outermost server handler inside each, over requests seen at both.
	clientTotal, handlerTotal time.Duration
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layers derives the layer times. The outermost handler is the gate's
// when there is one: transport is the client round trip minus it, and the
// gate's self time is its handler minus the replica handler inside it.
func (rs requestSpans) layers() layerTimes {
	var lt layerTimes
	for id, r := range rs.replica {
		if r.observe {
			lt.handlerObserve = append(lt.handlerObserve, us(r.dur))
		} else {
			lt.handlerClassify = append(lt.handlerClassify, us(r.dur))
		}
		if g, ok := rs.gate[id]; ok {
			lt.gateSelf = append(lt.gateSelf, us(g.dur-r.dur))
		}
	}
	for _, g := range rs.gate {
		lt.gateHandler = append(lt.gateHandler, us(g.dur))
	}
	for id, c := range rs.client {
		outer, ok := rs.gate[id]
		if !ok {
			outer, ok = rs.replica[id]
		}
		if !ok {
			continue
		}
		lt.transport = append(lt.transport, us(c.dur-outer.dur))
		lt.clientTotal += c.dur
		lt.handlerTotal += outer.dur
	}
	for _, xs := range [][]float64{lt.handlerClassify, lt.handlerObserve, lt.transport, lt.gateHandler, lt.gateSelf} {
		sort.Float64s(xs)
	}
	return lt
}
