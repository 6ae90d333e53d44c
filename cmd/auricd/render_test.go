package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"auric"
)

// recommendation is the wire form of one recommendation, for decoding
// responses and as encoding/json's reference shape in FuzzRenderJSON.
type recommendation struct {
	Param           string  `json:"param"`
	Neighbor        int     `json:"neighbor"`
	Value           float64 `json:"value"`
	Confidence      float64 `json:"confidence"`
	Supported       bool    `json:"supported"`
	Explanation     string  `json:"explanation"`
	RelaxationLevel int     `json:"relaxationLevel"`
	Candidates      int     `json:"candidates"`
}

// batchEntry is the wire form of one batch or NDJSON entry.
type batchEntry struct {
	Carrier         int              `json:"carrier"`
	Error           string           `json:"error,omitempty"`
	Recommendations []recommendation `json:"recommendations,omitempty"`
}

func wireRecs(recs []auric.Recommendation) []recommendation {
	if recs == nil {
		return nil
	}
	out := make([]recommendation, len(recs))
	for i, r := range recs {
		out[i] = recommendation{
			Param: r.Param, Neighbor: int(r.Neighbor), Value: r.Value,
			Confidence: r.Confidence, Supported: r.Supported, Explanation: r.Explanation,
			RelaxationLevel: r.RelaxationLevel, Candidates: r.Candidates,
		}
	}
	return out
}

func wireEntries(entries []recommendEntry) []batchEntry {
	if entries == nil {
		return nil
	}
	out := make([]batchEntry, len(entries))
	for i, e := range entries {
		out[i] = batchEntry{Carrier: e.carrier, Error: e.err, Recommendations: wireRecs(e.recs)}
	}
	return out
}

// encodeRef renders v the way auricd rendered every recommend answer
// before the one-pass writer: encoding/json, indented or compact.
func encodeRef(v any, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// FuzzRenderJSON holds the recommend writer to byte identity with
// encoding/json in all three response forms — the indented single object,
// the indented buffered batch and the compact NDJSON line — over arbitrary
// strings (invalid UTF-8, control bytes, HTML and separator characters),
// floats at the exponent-format edges, -0, and nil versus empty slices. A
// NaN or infinite float must fail the writer's check exactly when
// encoding/json fails, with the same message.
func FuzzRenderJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		param, expl       string
		value, confidence float64
		neighbor, level   int
		candidates        int
		supported         bool
		errMsg, traceID   string
		shape             uint8
	}{
		{"dlEarfcn", "10 of 12 matching carriers vote 1900", 1900, 0.8333333333333334, -1, 0, 12, true, "", "0af7651916cd43dd8448eb211c80319c", 2},
		{"a", "b", 1e-6, 9.999999999999999e-7, 0, 1, 0, false, "unknown carrier", "", 3},
		{"a", "b", 1e21, 9.999999999999999e20, 7, -1, 3, true, "", "t", 4},
		{"a", "b", 1e-7, -1e-300, 1, 2, 3, false, "x", "t", 2},
		{"a", "b", negZero, 5e-324, -5, 3, 1, true, "", "t", 2},
		{"a", "b", math.MaxFloat64, -123456789.125, 2, 0, 0, false, "", "", 2},
		{"a", "b", math.NaN(), 0.5, -1, 0, 1, true, "", "t", 2},
		{"a", "b", 0.5, math.Inf(1), -1, 0, 1, true, "", "t", 3},
		{"a", "b", math.Inf(-1), 0.5, -1, 0, 1, true, "", "t", 2},
		{"<p>&amp;</p>", "\"quoted\" \\ back\n\r\t\b\f\x00\x01\x1f\x7f", 1, 1, -1, 0, 1, true, "<&>", "\u2028", 2},
		{"\u2028\u2029", "héllo wörld ✓ \U0001F4E1", 1, 1, -1, 0, 1, true, "\u2029", "t", 2},
		{"\xff\xfe", "bad \xe2\x80 utf8 \xc3", 1, 1, -1, 0, 1, true, "\x80", "\xed\xa0\x80", 2},
		{"", "", 0, 0, 0, 0, 0, false, "", "", 0},
		{"", "", 0, 0, 0, 0, 0, false, "", "", 1},
	} {
		f.Add(seed.param, []byte(seed.expl), seed.value, seed.confidence, seed.neighbor,
			seed.level, seed.candidates, seed.supported, seed.errMsg, seed.traceID, seed.shape)
	}
	f.Fuzz(func(t *testing.T, param string, expl []byte, value, confidence float64,
		neighbor, level, candidates int, supported bool, errMsg, traceID string, shape uint8) {
		// shape 0 is a nil slice, 1 an empty one, 2+ that many variants
		// of the fuzzed recommendation (up to 6).
		var recs []auric.Recommendation
		if shape%7 > 0 {
			recs = []auric.Recommendation{}
		}
		base := auric.Recommendation{
			Param: param, Neighbor: auric.CarrierID(int32(neighbor)), Value: value,
			Confidence: confidence, Supported: supported, Explanation: string(expl),
			RelaxationLevel: level, Candidates: candidates,
		}
		for i := 1; i < int(shape%7); i++ {
			r := base
			switch i % 3 {
			case 2:
				r.Param, r.Explanation = r.Explanation, r.Param
				r.Value, r.Confidence = r.Confidence, r.Value
			case 0:
				r.Value, r.Confidence = -r.Value, r.Value*1e-3
				r.Supported = !r.Supported
			}
			recs = append(recs, r)
		}
		carrier := neighbor / 2
		finite := checkFinite(recs)
		// same compares the writer's bytes and finite-float check with
		// encoding/json's output and error for one form.
		same := func(form string, got, want []byte, err, check error) {
			t.Helper()
			switch {
			case (err == nil) != (check == nil):
				t.Fatalf("%s: encoding/json error %v, writer check %v", form, err, check)
			case err != nil && err.Error() != check.Error():
				t.Fatalf("%s: encoding/json error %q, writer check %q", form, err, check)
			case err == nil && !bytes.Equal(got, want):
				t.Fatalf("%s differs from encoding/json:\ngot  %q\nwant %q", form, got, want)
			}
		}

		want, err := encodeRef(map[string]any{
			"carrier": carrier, "traceId": traceID, "recommendations": wireRecs(recs),
		}, true)
		same("single", appendSingleJSON(nil, carrier, recs, traceID), want, err, finite)

		entries := []recommendEntry{
			{carrier: carrier, err: errMsg, recs: recs},
			{carrier: -1, err: "unknown carrier"},
			{carrier: 3, recs: []auric.Recommendation{}},
		}
		want, err = encodeRef(map[string]any{"traceId": traceID, "results": wireEntries(entries)}, true)
		same("batch", appendBatchJSON(nil, entries, traceID), want, err, finite)
		// Decoding never lets a nil or empty batch through; both still
		// render as encoding/json would.
		for _, empty := range [][]recommendEntry{nil, {}} {
			want, err = encodeRef(map[string]any{"traceId": traceID, "results": wireEntries(empty)}, true)
			same("empty batch", appendBatchJSON(nil, empty, traceID), want, err, nil)
		}

		want, err = encodeRef(&wireEntries(entries)[0], false)
		same("ndjson", appendEntryLine(nil, &entries[0]), want, err, finite)
	})
}
