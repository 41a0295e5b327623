// Package db implements the relational substrate of AggCAvSAT: typed
// values, schemas with key constraints, database instances made of facts
// with stable identifiers, key-equal groups, and CSV import/export.
//
// The package corresponds to the role Microsoft SQL Server plays in the
// ICDE 2022 paper: it stores possibly inconsistent relations and supports
// the scans and groupings the reductions need. It deliberately has no
// knowledge of queries (internal/cq) or constraints beyond keys
// (internal/constraints).
package db

import (
	"fmt"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	// KindNull is the zero Kind; it marks an absent value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable string.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Values are comparable with == when their kinds match; Compare imposes a
// total order used by ORDER BY, MIN/MAX and deterministic output.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it panics if v is not an INT.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("db: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric payload as float64; it accepts INT and FLOAT.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("db: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload; it panics if v is not a STRING.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("db: AsString on %s value", v.kind))
	}
	return v.s
}

// String renders the value for display and CSV export.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Equal reports whether two values are identical in kind and payload,
// except that INT and FLOAT values compare numerically.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare imposes a total order on values: NULL < numbers < strings;
// numbers compare numerically across INT/FLOAT; strings lexicographically.
func (v Value) Compare(o Value) int {
	ra, rb := v.kind.rank(), o.kind.rank()
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default: // both strings
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	}
}

// ParseValue parses s as a value of the given kind. Empty strings parse to
// the empty string for KindString and to NULL for numeric kinds.
func ParseValue(kind Kind, s string) (Value, error) {
	switch kind {
	case KindString:
		return Str(s), nil
	case KindInt:
		if s == "" {
			return Null(), nil
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("db: parse %q as INT: %w", s, err)
		}
		return Int(n), nil
	case KindFloat:
		if s == "" {
			return Null(), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("db: parse %q as FLOAT: %w", s, err)
		}
		return Float(f), nil
	case KindNull:
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("db: parse into unknown kind %v", kind)
	}
}

// Tuple is an ordered sequence of values, one per attribute of a relation.
type Tuple []Value

// Equal reports element-wise equality of equally long tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Clone returns a deep copy of the tuple (values are immutable, so a
// shallow copy of the slice suffices).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key builds a compact string key for map grouping over the projection of
// t onto the given attribute positions. The encoding is injective.
func (t Tuple) Key(positions []int) string {
	var b []byte
	for _, p := range positions {
		v := t[p]
		b = append(b, byte('0'+v.kind))
		b = append(b, v.String()...)
		b = append(b, 0x1f)
	}
	return string(b)
}
