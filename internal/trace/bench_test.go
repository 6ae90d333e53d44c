// Benchmarks pinning the tracer's cost discipline: the unsampled span
// path must be allocation-free (like obs's ~8ns counters, tracing has to
// be affordable on every request, not just traced ones), and the sampled
// path should stay in the sub-microsecond range so a 1.0 sample rate on a
// reference deployment doesn't distort the histograms it annotates.
package trace

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSpanUnsampled is the acceptance benchmark: starting,
// annotating and finishing a span below an unsampled root must not
// allocate — the recommend fan-out crosses this path 39+ times per
// request at any sampling rate.
func BenchmarkSpanUnsampled(b *testing.B) {
	tr := New(Options{})
	ctx, root := tr.StartRoot(context.Background(), "root")
	defer root.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "child")
		sp.SetStr("param", "sFreqPrio")
		sp.SetInt("candidates", 12)
		sp.Finish()
	}
}

func BenchmarkSpanSampled(b *testing.B) {
	tr := New(Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Roll the trace over periodically so the span buffer stays
		// request-sized instead of growing with b.N.
		if i&0xfff == 0xfff {
			root.Finish()
			ctx, root = tr.StartRoot(context.Background(), "root")
		}
		_, sp := Start(ctx, "child")
		sp.SetStr("param", "sFreqPrio")
		sp.SetInt("candidates", 12)
		sp.Finish()
	}
	root.Finish()
}

// BenchmarkRingPush measures the commit path under the ring's atomic
// cursor — the cost of publishing one finished trace.
func BenchmarkRingPush(b *testing.B) {
	r := newRing(256)
	tr := &Trace{Root: "r"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push(tr)
	}
}

// BenchmarkParamSpans measures the recommend.param shape: one op records
// the 39 spans of one carrier's singular-parameter fan-out, eight
// attributes each, under a sampled root rolled over every 64 ops (one
// sweep batch). per-span is the Start, Set* and Finish path; record is one
// RecordChildren call per carrier. allocs/span is the amortized allocation
// count per recorded span, the trace rolls included.
func BenchmarkParamSpans(b *testing.B) {
	const spans, batch = 39, 64
	run := func(b *testing.B, item func(ctx context.Context, root *Span)) {
		tr := New(Options{SampleRate: 1})
		ctx, root := tr.StartRoot(context.Background(), "root")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%batch == batch-1 {
				root.Finish()
				ctx, root = tr.StartRoot(context.Background(), "root")
			}
			item(ctx, root)
		}
		b.StopTimer()
		root.Finish()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N*spans), "allocs/span")
	}
	b.Run("per-span", func(b *testing.B) {
		run(b, func(ctx context.Context, _ *Span) {
			for j := 0; j < spans; j++ {
				_, sp := Start(ctx, "recommend.param")
				sp.SetStr("param", "sFreqPrio")
				sp.SetInt("neighbor", -1)
				sp.SetInt("relaxation_level", 1)
				sp.SetInt("candidates", 12)
				sp.SetFloat("vote_share", 0.75)
				sp.SetBool("exact_index_hit", false)
				sp.SetInt("posting_lists", 3)
				sp.SetBool("supported", true)
				sp.Finish()
			}
		})
	})
	b.Run("record", func(b *testing.B) {
		children := make([]Child, 0, spans)
		attrs := make([]Attr, 0, 8*spans)
		run(b, func(_ context.Context, root *Span) {
			children, attrs = children[:0], attrs[:0]
			for j := 0; j < spans; j++ {
				start := time.Now()
				attrs = append(attrs,
					Str("param", "sFreqPrio"),
					Int("neighbor", -1),
					Int("relaxation_level", 1),
					Int("candidates", 12),
					Float("vote_share", 0.75),
					Bool("exact_index_hit", false),
					Int("posting_lists", 3),
					Bool("supported", true))
				children = append(children, Child{Start: start, Duration: time.Since(start), NumAttrs: 8})
			}
			root.RecordChildren("recommend.param", children, attrs)
		})
	})
}
