// Package trace is the request-scoped tracing layer of the serving path:
// context-propagated spans with nanosecond timings and typed attributes,
// W3C traceparent propagation over HTTP, probabilistic plus always-on-slow
// sampling, and a lock-cheap in-memory ring buffer served as JSON at
// /debug/traces. Where internal/obs answers "how is the service doing in
// aggregate", trace answers "what happened inside this one request": the
// paper's deployment (Sec 5, Sec 7) requires every surprising
// recommendation to be explainable after the fact, and a span tree through
// the recommend pipeline — handler, engine, per-parameter fan-out, model
// predict — is the first half of that audit story (internal/audit is the
// durable second half).
//
// The design mirrors obs's cost discipline: when a request is not sampled,
// Start returns a nil span and the caller's context unchanged, so the
// whole pipeline below pays zero allocations and a few nanoseconds per
// span site (bench_test.go pins 0 allocs/op). Every *Span method is
// nil-safe, so instrumented code never branches on the sampling decision.
// A root span is allocated once per request regardless — it carries the
// traceparent echoed on the response and the wall-clock reading behind
// slow-capture — matching the one statusRecorder obs already allocates
// per request.
package trace

import (
	"context"
	"encoding/hex"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id shared by every span of one request.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-char lowercase hex form used in traceparent
// headers, exemplars and audit records.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C parent/span id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idState drives the process-wide span/trace id stream: a splitmix64
// generator advanced with a single atomic add, so id generation never
// contends on a lock even under the recommend fan-out.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

func nextRand() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := nextRand(), nextRand()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		a := nextRand()
		for i := 0; i < 8; i++ {
			s[i] = byte(a >> (8 * i))
		}
	}
	return s
}

// Options configure a Tracer.
type Options struct {
	// SampleRate is the probability in [0, 1] that a new trace records its
	// full span tree. Zero never samples probabilistically (an incoming
	// traceparent with the sampled flag, or slow-capture, still records);
	// 1 samples everything.
	SampleRate float64
	// SlowThreshold force-records any request whose root span runs at
	// least this long, even when the probabilistic decision said no — the
	// "always on for slow requests" half of the sampling policy. An
	// unsampled-but-slow trace carries only its root span (children were
	// never allocated), which still pins down when, what route, and how
	// long. Zero disables slow capture.
	SlowThreshold time.Duration
	// Capacity is the recent-trace ring size (default 256).
	Capacity int
}

// slowCapacity is the slow-trace ring size. Slow traces land in both
// rings, so a flood of fast sampled traffic cannot evict the outliers an
// operator is usually hunting.
const slowCapacity = 64

// Tracer owns the sampling policy and the trace rings. One Tracer serves
// a process; auricd creates it from flags and mounts its TracesHandler.
type Tracer struct {
	opts   Options
	recent *ring
	slow   *ring
	// sampleBits compares against the low 53 bits of the id stream so the
	// probabilistic decision costs one atomic add and one compare.
	sampleBits uint64
}

// New creates a tracer. Zero options mean: no probabilistic sampling, no
// slow capture, default ring sizes — a tracer that records only traces
// whose incoming traceparent carries the sampled flag.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.SampleRate < 0 {
		opts.SampleRate = 0
	}
	if opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	return &Tracer{
		opts:       opts,
		recent:     newRing(opts.Capacity),
		slow:       newRing(slowCapacity),
		sampleBits: uint64(opts.SampleRate * (1 << 53)),
	}
}

func (t *Tracer) coin() bool {
	if t.sampleBits == 0 {
		return false
	}
	return nextRand()&(1<<53-1) < t.sampleBits
}

// state is the per-trace shared record: the identity, the sampling
// decision, and the finished spans. Spans from concurrent pool workers
// append under one short-lived mutex.
type state struct {
	tracer  *Tracer
	traceID TraceID
	sampled bool

	mu    sync.Mutex
	spans []SpanData
	root  *Span
}

// Span is one timed operation inside a trace. Spans are created by
// StartRoot/StartRequest (roots) and Start (children), carry typed
// attributes, and must be Finished exactly once. A nil *Span is a valid
// no-op receiver for every method, which is how unsampled requests cost
// nothing below the root.
type Span struct {
	st     *state
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	attrs  []Attr
}

// SpanData is the immutable snapshot of one finished span.
type SpanData struct {
	ID       SpanID
	Parent   SpanID // zero for the root
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Trace is the committed snapshot of one finished request, as served at
// /debug/traces and printed by FormatTree.
type Trace struct {
	TraceID TraceID
	Root    string
	Start   time.Time
	// Duration is the root span's wall-clock time.
	Duration time.Duration
	// Sampled reports the head decision (probabilistic or inherited from
	// the traceparent sampled flag); ForcedSlow marks traces recorded only
	// because the root exceeded SlowThreshold.
	Sampled    bool
	ForcedSlow bool
	Spans      []SpanData
}

type ctxKey struct{}

// FromContext returns the active span of the context, or nil. The root
// span is present even on unsampled requests, so callers can read the
// trace id for audit records and response headers at any sampling rate.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartRoot begins a new trace with a fresh trace id and the tracer's
// probabilistic sampling decision. The returned context carries the root
// span; Finish on the root commits the trace to the rings (if sampled or
// slow).
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return t.startRoot(ctx, name, newTraceID(), t.coin())
}

// StartRequest begins the trace of one HTTP request: traceparent, when
// valid, contributes the caller's trace id, and its sampled flag forces
// sampling (so an operator can force a trace with a curl header at any
// sample rate). An unsampled incoming flag still gets the tracer's own
// probabilistic coin — the flag is an upstream hint, not a veto.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	traceID, _, parentSampled, ok := ParseTraceParent(traceparent)
	if !ok {
		traceID = newTraceID()
	}
	return t.startRoot(ctx, name, traceID, parentSampled || t.coin())
}

func (t *Tracer) startRoot(ctx context.Context, name string, traceID TraceID, sampled bool) (context.Context, *Span) {
	st := &state{tracer: t, traceID: traceID, sampled: sampled}
	sp := &Span{st: st, name: name, id: newSpanID(), start: time.Now()}
	st.root = sp
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Start begins a child span under the context's active span. When the
// request is unsampled (or the context carries no span at all) it returns
// the context unchanged and a nil span: zero allocations, nil-safe
// methods, nothing recorded.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !parent.st.sampled {
		return ctx, nil
	}
	sp := &Span{st: parent.st, name: name, id: newSpanID(), parent: parent.id, start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// TraceID returns the span's trace id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.st.traceID
}

// Sampled reports whether the span's trace records its span tree.
func (s *Span) Sampled() bool { return s != nil && s.st.sampled }

// TraceParent renders the W3C traceparent header value identifying this
// span — what a response echoes and what an outbound call would carry.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], s.st.traceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], s.id[:])
	copy(b[52:], "-00")
	if s.st.sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// Child is one already-finished child span handed to RecordChildren: its
// start, its duration and the number of RecordChildren's attributes, taken
// in order, that are its own.
type Child struct {
	Start    time.Time
	Duration time.Duration
	NumAttrs int
}

// RecordChildren records finished children of s, all named name, in the
// order given — the bulk form of Start, Set* and Finish for a fan-out that
// times its jobs itself and records them once they are done. attrs holds
// the children's attributes back to back. They are copied into one slab,
// and the trace lock is taken once, so the caller may reuse both slices.
// It is a no-op on a nil span or an unsampled trace.
func (s *Span) RecordChildren(name string, children []Child, attrs []Attr) {
	if s == nil || !s.st.sampled || len(children) == 0 {
		return
	}
	slab := make([]Attr, len(attrs))
	copy(slab, attrs)
	st := s.st
	st.mu.Lock()
	st.spans = slices.Grow(st.spans, len(children))
	for _, c := range children {
		st.spans = append(st.spans, SpanData{
			ID: newSpanID(), Parent: s.id, Name: name,
			Start: c.Start, Duration: c.Duration, Attrs: slab[:c.NumAttrs:c.NumAttrs],
		})
		slab = slab[c.NumAttrs:]
	}
	st.mu.Unlock()
}

// Finish stamps the span's duration and records it. Finishing the root
// span commits the whole trace: to the recent ring when sampled, and to
// the slow ring (additionally, or alone when unsampled) once the root
// duration reaches the tracer's SlowThreshold.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	st := s.st
	isRoot := st.root == s
	if st.sampled || isRoot {
		data := SpanData{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start, Duration: dur, Attrs: s.attrs,
		}
		st.mu.Lock()
		st.spans = append(st.spans, data)
		st.mu.Unlock()
	}
	if isRoot {
		st.commit(s.name, s.start, dur)
	}
}

func (st *state) commit(rootName string, start time.Time, dur time.Duration) {
	t := st.tracer
	slow := t.opts.SlowThreshold > 0 && dur >= t.opts.SlowThreshold
	if !st.sampled && !slow {
		return
	}
	st.mu.Lock()
	spans := st.spans
	st.spans = nil
	st.mu.Unlock()
	tr := &Trace{
		TraceID: st.traceID, Root: rootName, Start: start, Duration: dur,
		Sampled: st.sampled, ForcedSlow: slow && !st.sampled, Spans: spans,
	}
	if st.sampled {
		t.recent.push(tr)
	}
	if slow {
		t.slow.push(tr)
	}
}

// Traces snapshots the recent-trace ring, newest first.
func (t *Tracer) Traces() []*Trace { return t.recent.snapshot() }

// SlowTraces snapshots the slow-trace ring, newest first.
func (t *Tracer) SlowTraces() []*Trace { return t.slow.snapshot() }

// ring is the lock-free trace buffer: an atomic cursor picks the slot and
// an atomic pointer swap publishes the trace, so concurrent request
// goroutines commit without ever blocking each other or readers.
type ring struct {
	slots []atomic.Pointer[Trace]
	pos   atomic.Uint64
}

func newRing(n int) *ring { return &ring{slots: make([]atomic.Pointer[Trace], n)} }

func (r *ring) push(t *Trace) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot collects the buffered traces, newest first. Entries written
// mid-snapshot may appear or not — the buffer is a diagnostic window, not
// a log.
func (r *ring) snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	pos := r.pos.Load()
	n := uint64(len(r.slots))
	// Walk backwards from the most recently written slot.
	for k := uint64(0); k < n; k++ {
		tr := r.slots[(pos+n-1-k)%n].Load()
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out
}
