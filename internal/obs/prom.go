package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the Prometheus text exposition
// format, deterministically: families sorted by name, series sorted by
// their label values, labels in registration order. Safe to call while
// other goroutines keep observing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	families := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		families = append(families, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range families {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// write renders one family.
func (f *family) write(w *bufio.Writer) error {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	keys := append([]string(nil), f.ordered...)
	sort.Strings(keys)
	for _, key := range keys {
		switch m := f.series[key].(type) {
		case *Counter:
			writeSample(w, f.name, m.labels(), nil, m.value())
		case *Gauge:
			writeSample(w, f.name, m.labels(), nil, m.value())
		case *Histogram:
			cum, sum, n := m.snapshot()
			lbl := m.labels()
			for i, bound := range m.bounds {
				writeSample(w, f.name+"_bucket", lbl, &Label{Name: "le", Value: formatValue(bound)}, float64(cum[i]))
			}
			writeSample(w, f.name+"_bucket", lbl, &Label{Name: "le", Value: "+Inf"}, float64(cum[len(cum)-1]))
			writeSample(w, f.name+"_sum", lbl, nil, sum)
			writeSample(w, f.name+"_count", lbl, nil, float64(n))
		}
	}
	return nil
}

// writeSample renders one sample line, appending the extra label (the
// histogram "le") after the series labels when present.
func writeSample(w *bufio.Writer, name string, labels []Label, extra *Label, v float64) {
	w.WriteString(name)
	if len(labels) > 0 || extra != nil {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=\"%s\"", l.Name, escapeLabel(l.Value))
		}
		if extra != nil {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=\"%s\"", extra.Name, escapeLabel(extra.Value))
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, infinities as +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ---------------------------------------------------------------------------
// Validating parser
// ---------------------------------------------------------------------------

// Family is the parsed digest of one metric family of a text scrape.
type Family struct {
	// Name and Type come from the TYPE line (or are inferred as untyped).
	Name string
	Type MetricType
	// Help is the HELP line, unescaped.
	Help string
	// Samples counts the sample lines of the family, histogram internals
	// (_bucket, _sum, _count) included.
	Samples int
	// Rows holds every sample line of the family in scrape order, values
	// included — histogram internals keep their _bucket/_sum/_count
	// suffix in Sample.Name. This is what lets a scraper (bicrit top)
	// diff successive scrapes numerically instead of just counting lines.
	Rows []Sample
}

// Sample is one parsed sample line of a scrape.
type Sample struct {
	// Name is the full sample name, histogram suffixes included.
	Name string
	// Labels holds the sample's labels sorted by name (the text format
	// carries no canonical order).
	Labels []Label
	// Value is the sample value.
	Value float64
}

// label returns the value of the named label, or "" when absent.
func (s Sample) label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// ParseText parses a Prometheus text-format scrape and validates it:
// well-formed comment and sample lines, legal metric and label names,
// parsable values, TYPE consistency, and — for histograms — monotone
// cumulative buckets ending in a +Inf bucket that agrees with _count.
// It returns the families in the order first seen. Any violation is an
// error naming the offending line.
func ParseText(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var families []Family
	index := make(map[string]int)
	type histSeries struct {
		lastLe   float64
		lastCum  float64
		infCum   float64
		sawInf   bool
		count    float64
		sawCount bool
	}
	hists := make(map[string]*histSeries)
	lineNo := 0
	familyOf := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if i, ok := index[base]; ok && families[i].Type == TypeHistogram {
					return base
				}
			}
		}
		return name
	}
	touch := func(name string, typ MetricType) *Family {
		if i, ok := index[name]; ok {
			return &families[i]
		}
		index[name] = len(families)
		families = append(families, Family{Name: name, Type: typ})
		return &families[len(families)-1]
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return nil, fmt.Errorf("obs: line %d: invalid metric name %q in %s comment", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("obs: line %d: TYPE line needs a type", lineNo)
				}
				typ := MetricType(fields[3])
				switch typ {
				case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, fields[3])
				}
				fam := touch(name, typ)
				if fam.Type != typ && fam.Type != "" {
					return nil, fmt.Errorf("obs: line %d: metric %q redeclared as %s (was %s)", lineNo, name, typ, fam.Type)
				}
				fam.Type = typ
			} else if len(fields) == 4 {
				touch(name, "").Help = unescapeHelp(fields[3])
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
		}
		base := familyOf(name)
		fam := touch(base, "")
		fam.Samples++
		fam.Rows = append(fam.Rows, Sample{Name: name, Labels: sortLabels(labels), Value: value})
		if fam.Type != TypeHistogram {
			continue
		}
		key := base + "{" + nonLeKey(labels) + "}"
		hs := hists[key]
		if hs == nil {
			hs = &histSeries{lastLe: math.Inf(-1)}
			hists[key] = hs
		}
		switch {
		case name == base+"_bucket":
			leStr, ok := labels["le"]
			if !ok {
				return nil, fmt.Errorf("obs: line %d: histogram bucket of %q without le label", lineNo, base)
			}
			le, err := parseFloat(leStr)
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: bad le %q: %v", lineNo, leStr, err)
			}
			if le <= hs.lastLe {
				return nil, fmt.Errorf("obs: line %d: histogram %q buckets out of order (le %q after %g)", lineNo, base, leStr, hs.lastLe)
			}
			if value < hs.lastCum {
				return nil, fmt.Errorf("obs: line %d: histogram %q cumulative count decreases at le %q", lineNo, base, leStr)
			}
			hs.lastLe, hs.lastCum = le, value
			if math.IsInf(le, 1) {
				hs.sawInf, hs.infCum = true, value
			}
		case name == base+"_count":
			hs.count, hs.sawCount = value, true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Validate in sorted key order so the reported error is the same
	// whichever way the map iterates.
	keys := make([]string, 0, len(hists))
	for key := range hists {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		hs := hists[key]
		if !hs.sawInf {
			return nil, fmt.Errorf("obs: histogram series %s has no +Inf bucket", key)
		}
		if hs.sawCount && hs.infCum != hs.count {
			return nil, fmt.Errorf("obs: histogram series %s: +Inf bucket %g disagrees with _count %g", key, hs.infCum, hs.count)
		}
	}
	return families, nil
}

// parseSample splits one sample line into name, labels and value.
func parseSample(line string) (string, map[string]string, float64, error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
	}
	name := rest[:end]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels := map[string]string{}
	rest = rest[end:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if len(rest) == 0 {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			lname := strings.TrimSpace(rest[:eq])
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("label %q value is not quoted", lname)
			}
			val, n, err := unquoteLabel(rest)
			if err != nil {
				return "", nil, 0, err
			}
			labels[lname] = val
			rest = rest[n:]
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
	}
	valueStr := rest
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		valueStr = rest[:sp] // an optional timestamp may follow
	}
	v, err := parseFloat(valueStr)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %v", valueStr, err)
	}
	return name, labels, v, nil
}

// unquoteLabel consumes a quoted, escaped label value and returns the
// value and the number of input bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c in label value", s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// unescapeHelp reverses escapeHelp: \\ and \n back to backslash and
// newline. Unknown escapes are left intact, matching the format's
// lenient readers.
func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// sortLabels renders a parsed label map into a name-sorted slice.
func sortLabels(labels map[string]string) []Label {
	if len(labels) == 0 {
		return nil
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label{Name: n, Value: labels[n]}
	}
	return out
}

// nonLeKey renders the non-le labels of a bucket sample into a stable
// series key.
func nonLeKey(labels map[string]string) string {
	names := make([]string, 0, len(labels))
	for n := range labels {
		if n != "le" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + labels[n]
	}
	return strings.Join(parts, ",")
}

// parseFloat parses a sample or le value, accepting the format's +Inf,
// -Inf and NaN spellings.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validMetricName reports whether s is a legal metric name.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s is a legal label name.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
