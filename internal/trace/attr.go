package trace

import (
	"math"
	"strconv"
)

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one typed span attribute. The setters are monomorphic (SetStr,
// SetInt, ...) rather than a single SetAttr(key, any) so that annotating
// an unsampled (nil) span never boxes the value into an interface — the
// zero-allocation guarantee covers the arguments, not just the receiver.
// Str, Int, Float and Bool build the same attributes as values, for
// RecordChildren.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64 // the integer, 0/1 for a bool, or a float's IEEE 754 bits
}

// Str is a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Int is an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Float is a float attribute.
func Float(key string, v float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: int64(math.Float64bits(v))}
}

// Bool is a boolean attribute.
func Bool(key string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: key, kind: kindBool, num: n}
}

func (a Attr) float() float64 { return math.Float64frombits(uint64(a.num)) }

// Value returns the attribute value as the natural dynamic type, for JSON
// encoding and tree printing.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return a.num
	case kindFloat:
		return a.float()
	case kindBool:
		return a.num != 0
	default:
		return a.str
	}
}

// valueString renders the attribute value for the text span tree.
func (a Attr) valueString() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(a.num, 10)
	case kindFloat:
		return strconv.FormatFloat(a.float(), 'g', 4, 64)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	default:
		return a.str
	}
}

// SetStr attaches a string attribute (no-op on a nil span).
func (s *Span) SetStr(key, v string) {
	if s != nil {
		s.attrs = append(s.attrs, Str(key, v))
	}
}

// SetInt attaches an integer attribute (no-op on a nil span).
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.attrs = append(s.attrs, Int(key, v))
	}
}

// SetFloat attaches a float attribute (no-op on a nil span).
func (s *Span) SetFloat(key string, v float64) {
	if s != nil {
		s.attrs = append(s.attrs, Float(key, v))
	}
}

// SetBool attaches a boolean attribute (no-op on a nil span).
func (s *Span) SetBool(key string, v bool) {
	if s != nil {
		s.attrs = append(s.attrs, Bool(key, v))
	}
}
