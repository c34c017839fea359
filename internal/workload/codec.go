package workload

import (
	"bytes"
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
// encoding/json's indented bytes, and a decoder that reads what
// encoding/json's Decoder reads into the formats' structs (see io.go).

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

// The member names of each object, in the order matchKey reports them.
var (
	instanceKeys = []string{"version", "processors", "tasks"}
	arrivalsKeys = []string{"version", "processors", "arrivals"}
	taskKeys     = []string{"id", "name", "weight", "times", "submit"}
)

// matchKey returns the index in names of the unescaped member name key,
// matched exactly or else by bytes.EqualFold, or -1.
func matchKey(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder reads one JSON document from data. Its errors are the reason
// the decode failed, without the caller's "cannot decode" prefix.
type decoder struct {
	data []byte
	off  int
	// times gathers the current time vector (see decodeArray), reused
	// from task to task.
	times []float64
	// stack holds the open containers of a skipped value.
	stack []byte
}

var errEOF = errors.New("unexpected end of JSON input")

func (d *decoder) syntaxError() error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.off], d.off)
}

func (d *decoder) typeError(want string) error {
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

// document reads the top-level value: an object whose members go to
// field (see object), or null, which sets nothing.
func (d *decoder) document(field func(key []byte) (bool, error)) error {
	switch d.ws() {
	case '{':
		return d.object(1, field)
	case 'n':
		return d.literal("null")
	}
	if err := d.skip(0); err != nil {
		return err
	}
	return d.typeError("an object")
}

// object reads the object at d.off, nested depth deep. For each member
// field reads the value when it knows the unescaped key and returns
// false otherwise, and the value is then skipped.
func (d *decoder) object(depth int, field func(key []byte) (bool, error)) error {
	d.off++
	if d.ws() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.ws() != ':' {
			return d.syntaxError()
		}
		d.off++
		d.ws()
		known, err := field(key)
		if err != nil {
			return err
		}
		if !known {
			if err := d.skip(depth); err != nil {
				return err
			}
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

// key reads a member name and returns it unescaped.
func (d *decoder) key() ([]byte, error) {
	raw, escaped, err := d.str()
	if err != nil || !escaped {
		return raw, err
	}
	return unquote(raw), nil
}

// task reads one list element into t, and into submit when it is
// non-nil; without it a "submit" member is unknown. A null element leaves
// both as they are.
func (d *decoder) task(t *moldable.Task, submit *float64) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeError("a task object")
	}
	return d.object(3, func(key []byte) (bool, error) {
		switch matchKey(key, taskKeys) {
		case 0:
			return true, d.int(&t.ID)
		case 1:
			return true, d.string(&t.Name)
		case 2:
			return true, d.float(&t.Weight)
		case 3:
			return true, decodeArray(d, &t.Times, &d.times, d.float)
		case 4:
			if submit != nil {
				return true, d.float(submit)
			}
		}
		return false, nil
	})
}

// decodeArray reads an array into *p element by element, as encoding/json
// decodes into a slice: elements already there (up to the capacity) are
// decoded into, the slice is cut to the array's length, an empty array
// leaves a fresh empty slice and null leaves nil. The elements are
// gathered in *scratch, kept from call to call, so that a slice that has
// to grow is allocated once, at the array's length.
func decodeArray[T any](d *decoder, p *[]T, scratch *[]T, elem func(*T) error) error {
	switch d.ws() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	case '[':
	default:
		return d.typeError("an array")
	}
	d.off++
	if d.ws() == ']' {
		d.off++
		*p = []T{}
		return nil
	}
	s := *p
	buf := append((*scratch)[:0], s[:cap(s)]...) // what a null element keeps
	for i := 0; ; i++ {
		if i == len(buf) {
			var zero T
			buf = append(buf, zero)
		}
		if err := elem(&buf[i]); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.off++
		case ']':
			d.off++
			if n := i + 1; n <= cap(s) {
				s = s[:n]
			} else {
				s = make([]T, n)
			}
			copy(s, buf)
			*p, *scratch = s, buf
			return nil
		default:
			return d.syntaxError()
		}
	}
}

// int reads an integer literal into *p; null leaves it.
func (d *decoder) int(p *int) error {
	if d.ws() == 'n' {
		return d.literal("null")
	}
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

// float reads a number into *p; null leaves it.
func (d *decoder) float(p *float64) error {
	if d.ws() == 'n' {
		return d.literal("null")
	}
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

// string reads a string into *p; null leaves it.
func (d *decoder) string(p *string) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError("a string")
	}
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	if escaped {
		*p = string(unquote(raw))
	} else {
		*p = string(raw)
	}
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

// literal consumes the keyword lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError()
		}
		d.off++
	}
	return nil
}

// str consumes a string at d.off and returns the bytes between its quotes
// and whether they hold an escape or invalid UTF-8, either of which needs
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
			return raw, escaped || !utf8.Valid(raw), nil
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

// skip consumes one valid value of any kind at d.off, nested inside
// depth containers.
func (d *decoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack }()
	for {
		// One value; a container's opening leaves it on the stack.
		switch c := d.ws(); c {
		case '{', '[':
			d.off++
			if depth+len(stack)+1 > maxDepth {
				return errors.New("exceeded max depth")
			}
			closer := byte('}')
			if c == '[' {
				closer = ']'
			}
			if d.ws() == closer {
				d.off++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				if err := d.memberName(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if c != '-' && (c < '0' || c > '9') {
				return d.syntaxError()
			}
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// After a value: close what ends here, or go on to the next one.
	closing:
		for {
			if len(stack) == 0 {
				return nil
			}
			open := stack[len(stack)-1]
			switch c := d.ws(); {
			case c == ',':
				d.off++
				if open == '{' {
					if err := d.memberName(); err != nil {
						return err
					}
				}
				break closing
			case open == '{' && c == '}', open == '[' && c == ']':
				d.off++
				stack = stack[:len(stack)-1]
			default:
				return d.syntaxError()
			}
		}
	}
}

// memberName consumes a skipped object's member name and its colon.
func (d *decoder) memberName() error {
	d.ws()
	if _, _, err := d.str(); err != nil {
		return err
	}
	if d.ws() != ':' {
		return d.syntaxError()
	}
	d.off++
	return nil
}

// unquote decodes a string's escapes as encoding/json does: a \u escape
// outside a valid surrogate pair, and every byte of invalid UTF-8, become
// U+FFFD.
func unquote(raw []byte) []byte {
	b := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for r := 0; r < len(raw); {
		switch c := raw[r]; {
		case c == '\\':
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
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			if rr == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, raw[r:r+size]...)
			}
			r += size
		}
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
