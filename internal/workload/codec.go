package workload

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"bicriteria/internal/moldable"
)

// The codec behind io.go's two file formats: an encoder that writes
// encoding/json's indented bytes, and a strict decoder that reads only the
// grammar io.go states, into the values encoding/json would read.

// checkFinite rejects what JSON cannot spell, with encoding/json's error,
// in the order the writer meets the values.
func checkFinite(submit *float64, t *moldable.Task) error {
	if submit != nil && !finite(*submit) {
		return unsupportedValue(*submit)
	}
	if !finite(t.Weight) {
		return unsupportedValue(t.Weight)
	}
	for _, p := range t.Times {
		if !finite(p) {
			return unsupportedValue(p)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func unsupportedValue(f float64) error {
	return errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
}

// encoder appends the indented document into one buffer and hands it to
// w in chunks of about flushAt bytes.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

const flushAt = 64 << 10

func (e *encoder) open(version, m int, list string) {
	e.buf = make([]byte, 0, flushAt+4<<10)
	e.buf = append(e.buf, "{\n  \"version\": "...)
	e.buf = strconv.AppendInt(e.buf, int64(version), 10)
	e.buf = append(e.buf, ",\n  \"processors\": "...)
	e.buf = strconv.AppendInt(e.buf, int64(m), 10)
	e.buf = append(e.buf, ",\n  \""...)
	e.buf = append(e.buf, list...)
	e.buf = append(e.buf, "\": ["...)
}

// task writes the i-th element of the list, with its submission time
// first when submit is non-nil.
func (e *encoder) task(i int, submit *float64, t *moldable.Task) {
	b := e.buf
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n    {\n"...)
	if submit != nil {
		b = append(b, "      \"submit\": "...)
		b = appendFloat(b, *submit)
		b = append(b, ",\n"...)
	}
	b = append(b, "      \"id\": "...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	if t.Name != "" {
		b = append(b, ",\n      \"name\": "...)
		b = appendString(b, t.Name)
	}
	b = append(b, ",\n      \"weight\": "...)
	b = appendFloat(b, t.Weight)
	b = append(b, ",\n      \"times\": "...)
	switch {
	case t.Times == nil:
		b = append(b, "null"...)
	case len(t.Times) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for k, p := range t.Times {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        "...)
			b = appendFloat(b, p)
		}
		b = append(b, "\n      ]"...)
	}
	b = append(b, "\n    }"...)
	e.buf = b
	if len(e.buf) >= flushAt {
		e.flush()
	}
}

func (e *encoder) close(n int) error {
	if n > 0 {
		e.buf = append(e.buf, "\n  "...)
	}
	e.buf = append(e.buf, "]\n}\n"...)
	e.flush()
	return e.err
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// appendFloat spells f as encoding/json does: the shortest repr, in
// exponent form below 1e-6 and from 1e21 up, with "e-09" cleaned to "e-9".
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

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u003c, \u003e and \u0026, U+2028 and U+2029 escaped,
// control bytes escaped and invalid UTF-8 replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
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

// The member names of each object, in the order object hands their
// indexes to field.
var (
	instanceKeys = []string{"version", "processors", "tasks"}
	arrivalsKeys = []string{"version", "processors", "arrivals"}
	taskKeys     = []string{"id", "name", "weight", "times", "submit"}
)

// decoder reads one JSON document from data. Its errors are the reason
// the decode failed, without the caller's "cannot decode" prefix.
type decoder struct {
	data []byte
	off  int
	// times gathers the current time vector (see decodeArray), reused
	// from task to task.
	times []float64
}

var errEOF = errors.New("unexpected end of JSON input")

func (d *decoder) syntaxError() error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.off], d.off)
}

func (d *decoder) typeError(want string) error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("cannot read the value at offset %d as %s", d.off, want)
}

// ws skips JSON white space and returns the next byte, 0 at the end.
func (d *decoder) ws() byte {
	data, i := d.data, d.off
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

// document reads the top-level object (see object), after which only
// white space may follow.
func (d *decoder) document(names []string, field func(i int) error) error {
	if d.ws() != '{' {
		return d.typeError("an object")
	}
	if err := d.object(names, field); err != nil {
		return err
	}
	if d.ws(); d.off < len(d.data) {
		return fmt.Errorf("invalid character %q after the document at offset %d", d.data[d.off], d.off)
	}
	return nil
}

// object reads the object at d.off. Each member name must be one of names,
// spelled without escapes (an escaped name matches none of them), and
// appear at most once; field reads the value of names[i] at d.off. An
// error in a value is prefixed with its member's name, so that it reads
// as a path.
func (d *decoder) object(names []string, field func(i int) error) error {
	d.off++
	if d.ws() == '}' {
		d.off++
		return nil
	}
	var seen uint
	for {
		at := d.off
		key, _, err := d.str()
		if err != nil {
			return err
		}
		i := 0
		for i < len(names) && names[i] != string(key) {
			i++
		}
		switch {
		case i == len(names):
			return fmt.Errorf("unknown member %q at offset %d", key, at)
		case seen&(1<<i) != 0:
			return fmt.Errorf("repeated member %q at offset %d", key, at)
		}
		seen |= 1 << i
		if d.ws() != ':' {
			return d.syntaxError()
		}
		d.off++
		d.ws()
		if err := field(i); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		switch d.ws() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.off++
			return nil
		default:
			return d.syntaxError()
		}
	}
}

// task reads one list element into t, and into submit when it is
// non-nil; without it a "submit" member is unknown. Only "times" may be
// null, the writer's spelling of a nil vector, which leaves t.Times nil.
func (d *decoder) task(t *moldable.Task, submit *float64) error {
	if d.ws() != '{' {
		return d.typeError("a task object")
	}
	names := taskKeys
	if submit == nil {
		names = names[:4]
	}
	return d.object(names, func(i int) (err error) {
		switch i {
		case 0:
			return d.int(&t.ID)
		case 1:
			return d.string(&t.Name)
		case 2:
			return d.float(&t.Weight)
		case 3:
			if d.ws() == 'n' {
				return d.literal("null")
			}
			t.Times, err = decodeArray(d, &d.times, d.float)
			return err
		}
		return d.float(submit)
	})
}

// decodeArray reads an array into a new slice of its length; an empty
// array gives an empty slice, not nil. The elements are gathered in
// *scratch, kept from call to call, so that the slice is allocated once.
func decodeArray[T any](d *decoder, scratch *[]T, elem func(*T) error) ([]T, error) {
	if d.ws() != '[' {
		return nil, d.typeError("an array")
	}
	d.off++
	if d.ws() == ']' {
		d.off++
		return []T{}, nil
	}
	buf := (*scratch)[:0]
	for {
		var zero T
		buf = append(buf, zero)
		if err := elem(&buf[len(buf)-1]); err != nil {
			return nil, err
		}
		switch d.ws() {
		case ',':
			d.off++
			d.ws()
		case ']':
			d.off++
			*scratch = buf
			return append(make([]T, 0, len(buf)), buf...), nil
		default:
			return nil, d.syntaxError()
		}
	}
}

// int reads an integer literal into *p.
func (d *decoder) int(p *int) error {
	num, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return fmt.Errorf("number %s at offset %d is not an int", num, d.off-len(num))
	}
	*p = int(n)
	return nil
}

// float reads a number into *p.
func (d *decoder) float(p *float64) error {
	num, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("number %s at offset %d is out of float64 range", num, d.off-len(num))
	}
	*p = f
	return nil
}

// string reads a string into *p.
func (d *decoder) string(p *string) error {
	if d.ws() != '"' {
		return d.typeError("a string")
	}
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	if escaped {
		raw = unquote(raw)
	}
	*p = string(raw)
	return nil
}

// number consumes a number at d.off and returns its bytes; anything else
// there is a type error.
func (d *decoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	case i == start:
		return nil, d.typeError("a number")
	default:
		d.off = i
		return nil, d.syntaxError()
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, d.syntaxError()
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, d.syntaxError()
		}
		i = digits(data, i)
	}
	d.off = i
	return data[start:i], nil
}

// digits returns the index of the first non-digit from data[i] on.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// literal consumes the keyword lit.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError()
		}
		d.off++
	}
	return nil
}

// str consumes a string at d.off and returns the bytes between its quotes,
// which must be valid UTF-8, and whether they hold an escape, which needs
// unquote.
func (d *decoder) str() ([]byte, bool, error) {
	data := d.data
	if d.off >= len(data) || data[d.off] != '"' {
		return nil, false, d.syntaxError()
	}
	start := d.off + 1
	escaped := false
	for i := start; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			d.off = i + 1
			raw := data[start:i]
			if !utf8.Valid(raw) {
				return nil, false, fmt.Errorf("invalid UTF-8 in the string at offset %d", start-1)
			}
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			if i+1 >= len(data) {
				d.off = len(data)
				return nil, false, errEOF
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) {
						d.off = len(data)
						return nil, false, errEOF
					}
					if !isHex(data[k]) {
						d.off = k
						return nil, false, d.syntaxError()
					}
				}
				i += 6
			default:
				d.off = i + 1
				return nil, false, d.syntaxError()
			}
		case c < ' ':
			d.off = i
			return nil, false, d.syntaxError()
		default:
			i++
		}
	}
	d.off = len(data)
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes a string's escapes as encoding/json does: a \u escape
// outside a valid surrogate pair becomes U+FFFD.
func unquote(raw []byte) []byte {
	b := make([]byte, 0, len(raw)) // an escape never grows
	for r := 0; r < len(raw); {
		if raw[r] != '\\' {
			b = append(b, raw[r])
			r++
			continue
		}
		switch e := raw[r+1]; e {
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			rr := hex4(raw[r+2:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
					if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
				}
				rr = utf8.RuneError
			}
			b = utf8.AppendRune(b, rr)
			continue
		default: // '"', '\\' and '/'
			b = append(b, e)
		}
		r += 2
	}
	return b
}

// hex4 decodes the four hex digits str has already checked.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
