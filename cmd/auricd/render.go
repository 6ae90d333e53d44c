package main

// The POST /v1/recommend body writer. Answers run to ~124 KB (up to ~300
// recommendations with their explanations), and on a cache hit rendering
// them is nearly all of a request's cost. So these functions append the
// bytes in one pass, straight from the engine's immutable
// []auric.Recommendation: no copy, no reflection, no second pass to
// indent. The bytes are exactly encoding/json's — sorted map keys, struct
// field order, omitempty, float format and HTML-safe string escaping —
// and FuzzRenderJSON holds them to it. Indented output matches
// Encoder.SetIndent("", "  "); a depth below zero selects the compact
// form of the NDJSON lines.

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"auric"
)

// recommendEntry is one item's slot in a recommend response:
// recommendations or an error, never both.
type recommendEntry struct {
	carrier int
	err     string
	recs    []auric.Recommendation
}

// checkFinite reports the first NaN or infinite value or confidence in
// recs, with encoding/json's message: JSON has no form for either, so the
// response fails as it would have under encoding/json.
func checkFinite(recs []auric.Recommendation) error {
	for i := range recs {
		for _, f := range [2]float64{recs[i].Value, recs[i].Confidence} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
	}
	return nil
}

// appendSingleJSON appends the single-object answer, indented, with a
// trailing newline. The keys are in encoding/json's sorted map-key order,
// which perfbench's answer check relies on.
func appendSingleJSON(b []byte, carrier int, recs []auric.Recommendation, traceID string) []byte {
	b = append(b, '{')
	b = appendKey(b, 1, "carrier", true)
	b = strconv.AppendInt(b, int64(carrier), 10)
	b = appendKey(b, 1, "recommendations", false)
	b = appendArray(b, 1, recs, appendRec)
	b = appendKey(b, 1, "traceId", false)
	b = appendString(b, traceID)
	return append(b, "\n}\n"...)
}

// appendBatchJSON appends the buffered batch answer {results, traceId},
// indented, with a trailing newline.
func appendBatchJSON(b []byte, entries []recommendEntry, traceID string) []byte {
	b = append(b, '{')
	b = appendKey(b, 1, "results", true)
	b = appendArray(b, 1, entries, appendEntry)
	b = appendKey(b, 1, "traceId", false)
	b = appendString(b, traceID)
	return append(b, "\n}\n"...)
}

// appendEntryLine appends one NDJSON line: the compact form of a batch
// entry and a newline.
func appendEntryLine(b []byte, e *recommendEntry) []byte {
	return append(appendEntry(b, -1, e), '\n')
}

// appendEntry appends a batch entry object at depth d. Like the struct
// encoding/json used to render, the error and recommendations keys are
// omitted when empty.
func appendEntry(b []byte, d int, e *recommendEntry) []byte {
	in := inner(d)
	b = append(b, '{')
	b = appendKey(b, in, "carrier", true)
	b = strconv.AppendInt(b, int64(e.carrier), 10)
	if e.err != "" {
		b = appendKey(b, in, "error", false)
		b = appendString(b, e.err)
	}
	if len(e.recs) > 0 {
		b = appendKey(b, in, "recommendations", false)
		b = appendArray(b, in, e.recs, appendRec)
	}
	b = newline(b, d)
	return append(b, '}')
}

// appendArray appends items as an array whose closing bracket sits at
// depth d, each element written by elem: null for a nil slice and [] for
// an empty one, as encoding/json writes slices.
func appendArray[T any](b []byte, d int, items []T, elem func([]byte, int, *T) []byte) []byte {
	switch {
	case items == nil:
		return append(b, "null"...)
	case len(items) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = newline(b, inner(d))
		b = elem(b, inner(d), &items[i])
	}
	b = newline(b, d)
	return append(b, ']')
}

// appendRec appends one recommendation object at depth d. Neighbor is -1
// for singular parameters; 0 is a valid carrier id, so no key is ever
// omitted.
func appendRec(b []byte, d int, r *auric.Recommendation) []byte {
	in := inner(d)
	b = append(b, '{')
	b = appendKey(b, in, "param", true)
	b = appendString(b, r.Param)
	b = appendKey(b, in, "neighbor", false)
	b = strconv.AppendInt(b, int64(r.Neighbor), 10)
	b = appendKey(b, in, "value", false)
	b = appendFloat(b, r.Value)
	b = appendKey(b, in, "confidence", false)
	b = appendFloat(b, r.Confidence)
	b = appendKey(b, in, "supported", false)
	b = strconv.AppendBool(b, r.Supported)
	b = appendKey(b, in, "explanation", false)
	b = appendString(b, r.Explanation)
	b = appendKey(b, in, "relaxationLevel", false)
	b = strconv.AppendInt(b, int64(r.RelaxationLevel), 10)
	b = appendKey(b, in, "candidates", false)
	b = strconv.AppendInt(b, int64(r.Candidates), 10)
	b = newline(b, d)
	return append(b, '}')
}

// inner is the depth of the members of a value at depth d; compact output
// stays compact.
func inner(d int) int {
	if d < 0 {
		return d
	}
	return d + 1
}

// newline starts a line indented to depth d; compact output (d < 0) has
// no line breaks.
func newline(b []byte, d int) []byte {
	if d < 0 {
		return b
	}
	b = append(b, '\n')
	for ; d > 0; d-- {
		b = append(b, "  "...)
	}
	return b
}

// appendKey appends an object member's name at depth d, preceded by the
// separating comma unless it is the object's first member. Names are
// constants that need no escaping.
func appendKey(b []byte, d int, name string, first bool) []byte {
	if !first {
		b = append(b, ',')
	}
	b = newline(b, d)
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	if d >= 0 {
		b = append(b, ' ')
	}
	return b
}

// appendFloat formats f as encoding/json does: the shortest 'f' form,
// switching to 'e' below 1e-6 and from 1e21 in magnitude, with a
// one-digit negative exponent written without its leading zero (1e-7, not
// 1e-07). f must be finite (see checkFinite).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// safeJSON marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's HTML-safe escaping: printable ASCII other than '"', '\\',
// '<', '>' and '&'. Bytes from 0x80 are not marked; they take the UTF-8
// path. A table lookup per byte keeps the common scan to one load and
// one branch.
var safeJSON = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it: short escapes for '"', '\\', \n, \r, \t, \b
// and \f; \u00XX for other control bytes and for '<', '>' and '&';
// \u2028 and \u2029 for the line and paragraph separators; and \ufffd for
// each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if safeJSON[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
