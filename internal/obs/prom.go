package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabel renders one label pair with a leading comma
// (`,backend="127.0.0.1:9001"`), so label sets build by concatenation.
func promLabel(k, v string) string {
	return `,` + k + `="` + promEscape(v) + `"`
}

// promValue renders a sample value.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var histogramType = reflect.TypeOf(HistogramSnapshot{})

// WriteProm renders v, a struct or a pointer to one, in the text
// exposition format, the way encoding/json renders it as JSON. The
// struct tags are the only description of each metric:
//
//   - A scalar field tagged `prom:"name,type" help:"..."` (type
//     counter or gauge) is one sample of that family; integers render
//     exactly, floats in shortest form. A HistogramSnapshot field
//     tagged `prom:"name" help:"..."` is one histogram of that family.
//   - A string field tagged `prom:"name,gauge,label=key"` is an info
//     gauge: name{key="<value>"} 1.
//   - Struct, pointer and map[string]struct fields are walked; a nil
//     pointer contributes nothing. `prom:",label=key"` on a map labels
//     each element's samples key="<map key>" (keys sorted), and
//     `prom:",label=key=value"` on a struct adds a constant label.
//
// <prefix>build_info comes first. Samples are grouped by family in
// first-seen order, so every family is one contiguous block.
func WriteProm(w io.Writer, prefix string, v any) error {
	p := promWriter{families: map[string]*bytes.Buffer{}}
	b := Build()
	p.sample(prefix+"build_info", "gauge", "Build identity of the running binary (value is always 1).",
		"", promLabel("commit", b.Short())+promLabel("go", b.GoVersion), "1")
	p.walk(reflect.ValueOf(v), "")
	for _, f := range p.order {
		if _, err := w.Write(f.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

type promWriter struct {
	families map[string]*bytes.Buffer
	order    []*bytes.Buffer
}

// sample appends name{labels} value to family fam, declaring the
// family on first use. suffix extends fam into the sample name
// (histogram _bucket/_sum/_count).
func (p *promWriter) sample(fam, typ, help, suffix, labels, value string) {
	f := p.families[fam]
	if f == nil {
		f = new(bytes.Buffer)
		fmt.Fprintf(f, "# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, typ)
		p.families[fam] = f
		p.order = append(p.order, f)
	}
	f.WriteString(fam + suffix)
	if labels != "" {
		f.WriteString("{" + labels[1:] + "}")
	}
	f.WriteString(" " + value + "\n")
}

func (p *promWriter) walk(v reflect.Value, labels string) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		field, fv := t.Field(i), v.Field(i)
		if !field.IsExported() {
			continue
		}
		tag, label, _ := strings.Cut(field.Tag.Get("prom"), ",label=")
		name, typ, _ := strings.Cut(tag, ",")
		help := field.Tag.Get("help")
		switch {
		case fv.Type() == histogramType:
			p.histogram(name, help, labels, fv.Interface().(HistogramSnapshot))
		case fv.Kind() == reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				p.walk(fv.MapIndex(k), labels+promLabel(label, k.String()))
			}
		case fv.Kind() == reflect.Struct || fv.Kind() == reflect.Pointer:
			l := labels
			if k, val, ok := strings.Cut(label, "="); ok {
				l += promLabel(k, val)
			}
			p.walk(fv, l)
		case name == "":
		case fv.Kind() == reflect.String:
			p.sample(name, typ, help, "", labels+promLabel(label, fv.String()), "1")
		case fv.CanInt():
			p.sample(name, typ, help, "", labels, strconv.FormatInt(fv.Int(), 10))
		case fv.CanFloat():
			p.sample(name, typ, help, "", labels, promValue(fv.Float()))
		}
	}
}

// histogram writes one label set's series of a histogram family:
// cumulative le-labelled _bucket series ending at +Inf, _sum in
// seconds and _count.
func (p *promWriter) histogram(fam, help, labels string, s HistogramSnapshot) {
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		le := promLabel("le", promValue(BucketUpperSeconds(i)))
		p.sample(fam, "histogram", help, "_bucket", labels+le, strconv.FormatInt(cum, 10))
	}
	p.sample(fam, "histogram", help, "_sum", labels, promValue(float64(s.SumNs)/1e9))
	p.sample(fam, "histogram", help, "_count", labels, strconv.FormatInt(cum, 10))
}

// PromSeries is one parsed sample: a metric name, its sorted
// label-pair rendering and the value.
type PromSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// labelKey renders the label set deterministically (sorted keys,
// le excluded when excludeLe) for grouping histogram series.
func (s PromSeries) labelKey(excludeLe bool) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if excludeLe && k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(s.Labels[k])
	}
	return strings.Join(parts, ",")
}

// PromSet is a parsed exposition: every sample plus the declared
// types per metric family.
type PromSet struct {
	Series []PromSeries
	Types  map[string]string // family name -> counter|gauge|histogram|...
}

// Value returns the value of the first series with the given name
// whose labels include every pair in want (nil matches anything).
func (p *PromSet) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range p.Series {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseProm parses the Prometheus text exposition format, strictly
// enough to prove a scrape is well-formed: every non-comment line
// must be `name[{labels}] value` with valid, distinct label names and
// quoted values; every sample's family must have been declared once
// with # TYPE as counter, gauge, histogram, summary or untyped; a
// family's samples must form one contiguous group; and no series
// (name plus label set) may repeat. It is a validator for our own
// output (and a test oracle), not a general scraper.
func ParseProm(r io.Reader) (*PromSet, error) {
	set := &PromSet{Types: make(map[string]string)}
	series := map[string]bool{} // name{labels} already seen
	ended := map[string]bool{}  // families whose sample group is over
	current := ""               // family of the previous sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				if _, dup := set.Types[fields[2]]; dup {
					return nil, fmt.Errorf("prom: line %d: second # TYPE for %s", lineNo, fields[2])
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom: line %d: unknown metric type %q", lineNo, fields[3])
				}
				set.Types[fields[2]] = fields[3]
			} else if len(fields) >= 3 && fields[1] == "HELP" {
				// fine
			} else if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				return nil, fmt.Errorf("prom: line %d: malformed %s comment", lineNo, fields[1])
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name && set.Types[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := set.Types[family]; !ok {
			return nil, fmt.Errorf("prom: line %d: sample %q has no # TYPE declaration", lineNo, s.Name)
		}
		if family != current {
			if ended[family] {
				return nil, fmt.Errorf("prom: line %d: samples of %s are not one contiguous group", lineNo, family)
			}
			ended[current] = true
			current = family
		}
		id := s.Name + "{" + s.labelKey(false) + "}"
		if series[id] {
			return nil, fmt.Errorf("prom: line %d: repeated series %s", lineNo, id)
		}
		series[id] = true
		set.Series = append(set.Series, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

func parsePromSample(line string) (PromSeries, error) {
	s := PromSeries{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parsePromLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("invalid value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func validPromName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parsePromLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '=': %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if key == "" || !validPromName(key) || strings.Contains(key, ":") {
			return fmt.Errorf("invalid label name %q", key)
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("label %q repeated", key)
		}
		rest := strings.TrimSpace(s[eq+1:])
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %q value must be quoted", key)
		}
		// Scan the quoted value honoring escapes.
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("label %q value unterminated", key)
		}
		into[key] = val.String()
		s = strings.TrimSpace(rest[i+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

// CheckHistograms validates every histogram family in the set: for
// each label group, bucket counts must be cumulative (non-decreasing
// as le grows), the le="+Inf" bucket must exist and equal the _count
// series, and _sum must be present. It returns the number of
// histogram instances validated.
func (p *PromSet) CheckHistograms() (int, error) {
	type group struct {
		buckets []PromSeries
		count   *float64
		sum     *float64
	}
	groups := map[string]map[string]*group{} // family -> labelKey -> group
	for family, typ := range p.Types {
		if typ == "histogram" {
			groups[family] = map[string]*group{}
		}
	}
	for _, s := range p.Series {
		for family := range groups {
			var g *group
			key := s.labelKey(true)
			get := func() *group {
				if groups[family][key] == nil {
					groups[family][key] = &group{}
				}
				return groups[family][key]
			}
			switch s.Name {
			case family + "_bucket":
				g = get()
				g.buckets = append(g.buckets, s)
			case family + "_count":
				g = get()
				v := s.Value
				g.count = &v
			case family + "_sum":
				g = get()
				v := s.Value
				g.sum = &v
			}
		}
	}
	n := 0
	for family, byLabel := range groups {
		for key, g := range byLabel {
			n++
			if g.count == nil || g.sum == nil {
				return n, fmt.Errorf("histogram %s{%s}: missing _count or _sum", family, key)
			}
			if len(g.buckets) == 0 {
				return n, fmt.Errorf("histogram %s{%s}: no _bucket series", family, key)
			}
			sort.Slice(g.buckets, func(i, j int) bool {
				return parseLe(g.buckets[i].Labels["le"]) < parseLe(g.buckets[j].Labels["le"])
			})
			prev := -1.0
			for _, b := range g.buckets {
				if b.Value < prev {
					return n, fmt.Errorf("histogram %s{%s}: buckets not cumulative at le=%s", family, key, b.Labels["le"])
				}
				prev = b.Value
			}
			last := g.buckets[len(g.buckets)-1]
			if !math.IsInf(parseLe(last.Labels["le"]), 1) {
				return n, fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" bucket", family, key)
			}
			if last.Value != *g.count {
				return n, fmt.Errorf("histogram %s{%s}: +Inf bucket %v != _count %v", family, key, last.Value, *g.count)
			}
		}
	}
	return n, nil
}

func parseLe(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
