package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// NewMux builds the debug HTTP handler served by cmd/ocsd and
// cmd/prestolite on their -metrics-listen port:
//
//	/metrics       — the registry in Prometheus-style text exposition
//	/debug/traces  — recent traces, one line per trace with span count
//	                 and duration; /debug/traces?trace=<id> renders the
//	                 full span tree of one trace
//
// tracers maps a component label ("frontend", "node0") to its tracer;
// /debug/traces merges spans across all of them, so one query shows as
// one connected trace even though each component records its own spans.
//
// extras mount additional debug endpoints (e.g. the engine's
// /debug/queries process list) without telemetry importing their
// packages.
func NewMux(reg *Registry, tracers map[string]*Tracer, extras ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	for _, e := range extras {
		mux.Handle(e.Pattern, e.Handler)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, reg.Render())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var all []SpanView
		for _, t := range tracers {
			all = append(all, t.Spans()...)
		}
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			var spans []SpanView
			for _, v := range all {
				if v.Trace == TraceID(id) {
					spans = append(spans, v)
				}
			}
			RenderTrace(w, spans)
			return
		}
		byTrace := map[TraceID][]SpanView{}
		for _, v := range all {
			byTrace[v.Trace] = append(byTrace[v.Trace], v)
		}
		ids := make([]TraceID, 0, len(byTrace))
		for id := range byTrace {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			return earliest(byTrace[ids[i]]).Before(earliest(byTrace[ids[j]]))
		})
		for _, id := range ids {
			spans := byTrace[id]
			root := rootOf(spans)
			fmt.Fprintf(w, "trace %016x  spans=%d  root=%s  dur=%s\n",
				uint64(id), len(spans), root.Name, root.Duration())
		}
	})
	return mux
}

func earliest(spans []SpanView) time.Time {
	t0 := spans[0].Start
	for _, v := range spans[1:] {
		if v.Start.Before(t0) {
			t0 = v.Start
		}
	}
	return t0
}

func rootOf(spans []SpanView) SpanView {
	for _, v := range spans {
		if v.Parent == 0 {
			return v
		}
	}
	// No root retained (evicted): fall back to the earliest span.
	best := spans[0]
	for _, v := range spans[1:] {
		if v.Start.Before(best.Start) {
			best = v
		}
	}
	return best
}

// Endpoint is an extra debug handler mounted on the mux by pattern.
type Endpoint struct {
	Pattern string
	Handler http.Handler
}

// Serve binds addr and serves the debug mux in a background goroutine,
// returning the bound address and a shutdown func. Binaries pass
// -metrics-listen through here.
func Serve(addr string, reg *Registry, tracers map[string]*Tracer, extras ...Endpoint) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux(reg, tracers, extras...)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
