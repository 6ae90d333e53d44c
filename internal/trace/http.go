package trace

import (
	"encoding/json"
	"net/http"
	"time"
)

// traceParentKey is the traceparent header in canonical form: net/http
// canonicalizes incoming header names, and Header.Get and Set canonicalize
// a key that is already canonical without allocating.
const traceParentKey = "Traceparent"

// Middleware wraps next so every request runs under a root span: the
// incoming traceparent header (if any) is honored, the response always
// carries a traceparent header identifying the request's trace — sampled
// or not, so a caller can quote the id in a bug report and the audit log
// can be joined on it — and the finished trace is committed to the rings
// per the sampling policy. The route label keeps span names bounded the
// same way obs.HTTPMetrics keeps its label space bounded.
func (t *Tracer) Middleware(route string, next http.Handler) http.Handler {
	name := "http " + route
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		ctx, sp := t.StartRequest(r.Context(), name, r.Header.Get(traceParentKey))
		rw.Header().Set(traceParentKey, sp.TraceParent())
		sp.SetStr("method", r.Method)
		sp.SetStr("path", r.URL.Path)
		next.ServeHTTP(rw, r.WithContext(ctx))
		sp.Finish()
	})
}

// traceJSON is the wire shape of one trace at /debug/traces.
type traceJSON struct {
	TraceID    string     `json:"traceId"`
	Root       string     `json:"root"`
	Start      time.Time  `json:"start"`
	DurationNs int64      `json:"durationNs"`
	Sampled    bool       `json:"sampled"`
	ForcedSlow bool       `json:"forcedSlow,omitempty"`
	Spans      []spanJSON `json:"spans"`
}

type spanJSON struct {
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentId,omitempty"`
	Name     string `json:"name"`
	// StartNs is the span start as an offset from the trace start, so the
	// tree reads as a timeline without repeating wall-clock stamps.
	StartNs    int64          `json:"startNs"`
	DurationNs int64          `json:"durationNs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

func toJSON(tr *Trace) traceJSON {
	out := traceJSON{
		TraceID:    tr.TraceID.String(),
		Root:       tr.Root,
		Start:      tr.Start,
		DurationNs: tr.Duration.Nanoseconds(),
		Sampled:    tr.Sampled,
		ForcedSlow: tr.ForcedSlow,
		Spans:      make([]spanJSON, 0, len(tr.Spans)),
	}
	for _, sp := range tr.Spans {
		sj := spanJSON{
			SpanID:     sp.ID.String(),
			Name:       sp.Name,
			StartNs:    sp.Start.Sub(tr.Start).Nanoseconds(),
			DurationNs: sp.Duration.Nanoseconds(),
		}
		if !sp.Parent.IsZero() {
			sj.ParentID = sp.Parent.String()
		}
		if len(sp.Attrs) > 0 {
			sj.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sj.Attrs[a.Key] = a.Value()
			}
		}
		out.Spans = append(out.Spans, sj)
	}
	return out
}

// TracesHandler serves the trace rings as JSON — the GET /debug/traces
// endpoint of auricd. The payload carries the sampling configuration so
// an operator reading an empty trace list can tell "nothing sampled"
// from "nothing served".
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		recent := t.Traces()
		slow := t.SlowTraces()
		body := struct {
			SampleRate      float64     `json:"sampleRate"`
			SlowThresholdMs float64     `json:"slowThresholdMs"`
			Capacity        int         `json:"capacity"`
			Traces          []traceJSON `json:"traces"`
			Slow            []traceJSON `json:"slow"`
		}{
			SampleRate:      t.opts.SampleRate,
			SlowThresholdMs: float64(t.opts.SlowThreshold) / float64(time.Millisecond),
			Capacity:        t.opts.Capacity,
			Traces:          make([]traceJSON, 0, len(recent)),
			Slow:            make([]traceJSON, 0, len(slow)),
		}
		for _, tr := range recent {
			body.Traces = append(body.Traces, toJSON(tr))
		}
		for _, tr := range slow {
			body.Slow = append(body.Slow, toJSON(tr))
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
}
