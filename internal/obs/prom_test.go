package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// promFixture exercises every WriteProm rule: scalars, an info
// gauge, a map labelled by key, two structs sharing families under
// constant labels, a nil pointer and histograms.
type promFixture struct {
	Up        float64                 `prom:"dssddi_up,gauge" help:"Always 1."`
	Precision string                  `prom:"dssddi_precision_info,gauge,label=precision" help:"Precision."`
	Endpoints map[string]promEndpoint `prom:",label=endpoint"`
	Suggest   promCache               `prom:",label=cache=suggest"`
	Explain   promCache               `prom:",label=cache=explain"`
	Missing   *promCache
	Lag       HistogramSnapshot `prom:"dssddi_lag_seconds" help:"Lag."`
	Skipped   int64             `json:"skipped"`
}

type promEndpoint struct {
	Requests int64             `prom:"dssddi_requests_total,counter" help:"Requests by endpoint."`
	Latency  HistogramSnapshot `prom:"dssddi_request_duration_seconds" help:"Latency by endpoint."`
}

type promCache struct {
	Hits   int64 `prom:"dssddi_cache_hits_total,counter" help:"Hits."`
	Misses int64 `prom:"dssddi_cache_misses_total,counter" help:"Misses."`
}

func renderProm(t testing.TB, prefix string, v any) (string, *PromSet) {
	t.Helper()
	var sb strings.Builder
	if err := WriteProm(&sb, prefix, v); err != nil {
		t.Fatal(err)
	}
	set, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, sb.String())
	}
	return sb.String(), set
}

// TestPromRoundTrip renders a struct with WriteProm, then parses and
// validates it with the same parser the smoke test uses — proving the
// two ends agree on the format and on every rule of the renderer.
func TestPromRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	v := promFixture{
		Up:        1,
		Precision: "f32",
		Endpoints: map[string]promEndpoint{
			"suggest": {Requests: 100, Latency: h.Snapshot()},
			"alerts":  {Requests: 40},
		},
		Suggest: promCache{Hits: 7, Misses: 3},
		Explain: promCache{Hits: 1, Misses: 2},
		Skipped: 9,
	}
	text, set := renderProm(t, "dssddi_", &v)

	want := map[string]float64{
		`dssddi_up`:                                                 1,
		`dssddi_precision_info{precision="f32"}`:                    1,
		`dssddi_requests_total{endpoint="alerts"}`:                  40,
		`dssddi_requests_total{endpoint="suggest"}`:                 100,
		`dssddi_cache_hits_total{cache="suggest"}`:                  7,
		`dssddi_cache_hits_total{cache="explain"}`:                  1,
		`dssddi_cache_misses_total{cache="suggest"}`:                3,
		`dssddi_cache_misses_total{cache="explain"}`:                2,
		`dssddi_lag_seconds_count`:                                  0,
		`dssddi_request_duration_seconds_count{endpoint="suggest"}`: 100,
		`dssddi_request_duration_seconds_count{endpoint="alerts"}`:  0,
	}
	for series, val := range want {
		if !strings.Contains(text, "\n"+series+" "+promValue(val)+"\n") {
			t.Errorf("missing sample %s %v", series, val)
		}
	}
	if !strings.HasPrefix(text, "# HELP dssddi_build_info ") {
		t.Errorf("build_info is not the first family:\n%s", text)
	}
	if strings.Contains(text, "skipped") || strings.Contains(text, "Missing") {
		t.Errorf("untagged field or nil pointer rendered:\n%s", text)
	}
	// Map keys render sorted.
	if strings.Index(text, `endpoint="alerts"`) > strings.Index(text, `endpoint="suggest"`) {
		t.Errorf("map elements not in sorted key order:\n%s", text)
	}
	n, err := set.CheckHistograms()
	if err != nil {
		t.Fatalf("histogram validation: %v", err)
	}
	if n != 3 {
		t.Fatalf("validated %d histogram instances, want 3", n)
	}
	for fam, typ := range map[string]string{
		"dssddi_build_info": "gauge", "dssddi_up": "gauge", "dssddi_requests_total": "counter",
		"dssddi_request_duration_seconds": "histogram", "dssddi_lag_seconds": "histogram",
	} {
		if set.Types[fam] != typ {
			t.Errorf("family %s has type %q, want %q", fam, set.Types[fam], typ)
		}
	}
}

// TestPromHistogramMergeEqualsSum is the fleet-aggregation contract:
// the router's merged exposition must carry bucket counts exactly
// equal to the sum of what each backend would expose.
func TestPromHistogramMergeEqualsSum(t *testing.T) {
	var h1, h2 Histogram
	for i := 1; i <= 60; i++ {
		h1.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 1; i <= 40; i++ {
		h2.Observe(time.Duration(i) * 50 * time.Microsecond)
	}
	merged := h1.Snapshot()
	merged.Add(h2.Snapshot())

	render := func(s HistogramSnapshot) *PromSet {
		_, set := renderProm(t, "x_", struct {
			Lat HistogramSnapshot `prom:"lat_seconds" help:"x"`
		}{s})
		return set
	}
	m, a, b := render(merged), render(h1.Snapshot()), render(h2.Snapshot())
	for i := 0; i < NumBuckets; i++ {
		le := promValue(BucketUpperSeconds(i))
		want := map[string]string{"le": le}
		mv, _ := m.Value("lat_seconds_bucket", want)
		av, _ := a.Value("lat_seconds_bucket", want)
		bv, _ := b.Value("lat_seconds_bucket", want)
		if mv != av+bv {
			t.Fatalf("bucket le=%s: merged %v != %v + %v", le, mv, av, bv)
		}
	}
	mc, _ := m.Value("lat_seconds_count", nil)
	if mc != 100 {
		t.Fatalf("merged count %v, want 100", mc)
	}
}

func TestPromEscaping(t *testing.T) {
	path := `C:\x"y` + "\nz"
	_, set := renderProm(t, "x_", struct {
		Path string `prom:"m,gauge,label=path" help:"x"`
	}{path})
	if v, ok := set.Value("m", map[string]string{"path": path}); !ok || v != 1 {
		t.Fatalf("escape round-trip failed: %v %v in %+v", v, ok, set.Series)
	}
}

// TestParsePromRejectsNonconforming holds the parser to its doc
// comment: one input per structural rule of the text format, each
// refused for that rule's reason.
func TestParsePromRejectsNonconforming(t *testing.T) {
	for _, c := range promRejected {
		_, err := ParseProm(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%q: got error %v, want one mentioning %q", c.in, err, c.reason)
		}
	}
}

// promRejected holds one exposition per structural rule ParseProm
// enforces; the fuzz seed corpus carries the same inputs.
var promRejected = []struct{ in, reason string }{
	{"# TYPE a counter\n# TYPE b counter\na{x=\"1\"} 1\nb{x=\"1\"} 1\na{x=\"2\"} 1\n", "not one contiguous group"},
	{"# TYPE a counter\na 1\n# TYPE a counter\n", "second # TYPE"},
	{"# TYPE a counter\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n", "repeated series"},
	{"# TYPE a counter\na{=\"1\"} 1\n", "invalid label name"},
	{"# TYPE a counter\na{a b=\"1\"} 1\n", "invalid label name"},
	{"# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n", "repeated"},
	{"# TYPE a countr\na 1\n", "unknown metric type"},
}

func TestParsePromRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE m counter\nm{x=unquoted} 1\n",
		"# TYPE m counter\nm{x=\"v\"} notanumber\n",
		"# TYPE m counter\nm{x=\"unterminated 1\n",
		"# TYPE m counter\n1leading_digit 1\n",
	}
	for _, in := range bad {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestCheckHistogramsCatchesBroken(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="+Inf"} 4
h_sum 1
h_count 4
`
	set, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := set.CheckHistograms(); err == nil {
		t.Fatal("non-cumulative buckets passed validation")
	}
	in2 := `# TYPE h histogram
h_bucket{le="0.1"} 4
h_bucket{le="+Inf"} 5
h_sum 1
h_count 4
`
	set2, _ := ParseProm(strings.NewReader(in2))
	if _, err := set2.CheckHistograms(); err == nil {
		t.Fatal("+Inf != _count passed validation")
	}
}

// fuzzMetrics is the struct FuzzParseProm renders from fuzzed bytes.
type fuzzMetrics struct {
	Count int64                `prom:"f_total,counter" help:"Counter."`
	Gauge float64              `prom:"f_gauge,gauge" help:"Gauge."`
	Info  string               `prom:"f_info,gauge,label=v" help:"Info."`
	ByKey map[string]fuzzEntry `prom:",label=k"`
	Lat   HistogramSnapshot    `prom:"f_seconds" help:"Histogram."`
}

type fuzzEntry struct {
	N int64 `prom:"f_entry_total,counter" help:"Per-key counter."`
}

// newFuzzMetrics fills every field from data. Integers are masked so
// they, and the cumulative bucket sums, stay exact in a float64.
func newFuzzMetrics(data []byte) fuzzMetrics {
	word := func(i int) uint64 {
		var b [8]byte
		for j := range b {
			if len(data) > 0 {
				b[j] = data[(8*i+j)%len(data)]
			}
		}
		return binary.LittleEndian.Uint64(b[:]) ^ uint64(i)*0x9e3779b97f4a7c15
	}
	const exact = 1<<53 - 1
	half := len(data) / 2
	m := fuzzMetrics{
		Count: int64(word(0) & exact),
		Gauge: math.Float64frombits(word(1)),
		Info:  string(data),
		ByKey: map[string]fuzzEntry{
			string(data[:half]): {N: int64(word(2) & exact)},
			string(data[half:]): {N: int64(word(3) & exact)},
		},
	}
	for i := range m.Lat.Buckets {
		m.Lat.Buckets[i] = int64(word(4+i) & (1<<40 - 1))
		m.Lat.Count += m.Lat.Buckets[i]
	}
	m.Lat.SumNs = int64(word(4+NumBuckets) & exact)
	return m
}

// FuzzParseProm: the parser never panics, CheckHistograms never panics
// on a set the parser accepts, and a struct of fuzzed counters, label
// values and histogram buckets rendered by WriteProm parses back to
// exactly the values rendered. The seed corpus holds one serve and
// one router exposition plus every input promRejected lists.
func FuzzParseProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if set, err := ParseProm(bytes.NewReader(data)); err == nil {
			set.CheckHistograms()
		}

		m := newFuzzMetrics(data)
		_, set := renderProm(t, "f_", m)
		if _, err := set.CheckHistograms(); err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{"f_total": float64(m.Count), "f_seconds_sum": float64(m.Lat.SumNs) / 1e9, "f_seconds_count": float64(m.Lat.Count)}
		for name, v := range want {
			if got, ok := set.Value(name, nil); !ok || got != v {
				t.Errorf("%s = %v (present %v), rendered %v", name, got, ok, v)
			}
		}
		if got, _ := set.Value("f_gauge", nil); got != m.Gauge && !(math.IsNaN(got) && math.IsNaN(m.Gauge)) {
			t.Errorf("f_gauge = %v, rendered %v", got, m.Gauge)
		}
		if got, ok := set.Value("f_info", map[string]string{"v": m.Info}); !ok || got != 1 {
			t.Errorf("info gauge label %q did not round-trip", m.Info)
		}
		for k, e := range m.ByKey {
			if got, ok := set.Value("f_entry_total", map[string]string{"k": k}); !ok || got != float64(e.N) {
				t.Errorf("f_entry_total{k=%q} = %v (present %v), rendered %v", k, got, ok, e.N)
			}
		}
		var cum int64
		for i, c := range m.Lat.Buckets {
			cum += c
			le := map[string]string{"le": promValue(BucketUpperSeconds(i))}
			if got, ok := set.Value("f_seconds_bucket", le); !ok || got != float64(cum) {
				t.Errorf("bucket %d = %v (present %v), rendered %v", i, got, ok, cum)
			}
		}
		if n := 4 + len(m.ByKey) + NumBuckets + 2; len(set.Series) != n {
			t.Errorf("%d series parsed, %d rendered", len(set.Series), n)
		}
	})
}
