package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dssddi/internal/obs"
)

// TestRequestIDEchoAndMint: every response carries X-Request-Id — the
// client's own id echoed back verbatim when one was sent, a freshly
// minted valid id otherwise.
func TestRequestIDEchoAndMint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Minted: no id on the request.
	resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: 0, K: 2})
	minted := resp.Header.Get(obs.RequestIDHeader)
	if minted == "" {
		t.Fatal("response missing a minted X-Request-Id")
	}

	// Echoed: the client's id comes back exactly.
	body, _ := json.Marshal(SuggestRequest{Patient: 1, K: 2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/suggest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "client-id-42")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get(obs.RequestIDHeader); got != "client-id-42" {
		t.Fatalf("client id not echoed: got %q", got)
	}

	// A garbage id (spaces, too long) is replaced, not echoed.
	req2, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set(obs.RequestIDHeader, "has spaces in it")
	r3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if got := r3.Header.Get(obs.RequestIDHeader); got == "has spaces in it" || got == "" {
		t.Fatalf("invalid client id should be replaced with a minted one, got %q", got)
	}
}

// TestTracezSpansExplainLatency: with full sampling, a scored (cache
// bypassing) request's trace carries the full stage timeline — queue,
// score, encode — and the stages sum to no more than the
// measured request latency.
func TestTracezSpansExplainLatency(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1})

	rid := obs.NewRequestID()
	body, _ := json.Marshal(SuggestRequest{Patient: 2, K: 3})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/suggest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Cache-Control", "no-cache")
	req.Header.Set(obs.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	views := s.Tracer().Find(rid)
	if len(views) == 0 {
		t.Fatalf("no retained trace for %s", rid)
	}
	v := views[0]
	if v.DurMs <= 0 || v.Status != http.StatusOK || v.Epoch != 1 {
		t.Fatalf("trace header wrong: dur=%v status=%d epoch=%d", v.DurMs, v.Status, v.Epoch)
	}
	have := make(map[string]bool, len(v.Spans))
	var sumMs float64
	for _, sp := range v.Spans {
		have[sp.Name] = true
		sumMs += sp.DurMs
		if sp.DurMs < 0 || sp.StartMs < 0 {
			t.Fatalf("span %s has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, want := range []string{"queue", "score", "encode"} {
		if !have[want] {
			t.Fatalf("span %q missing from scored request trace (have %v)", want, v.Spans)
		}
	}
	// Stages are sequential; allow a little scheduling slack.
	if sumMs > v.DurMs+1.0 {
		t.Fatalf("spans sum to %.3fms but the request took %.3fms", sumMs, v.DurMs)
	}

	// The tracez handler serves the same trace by id, in both formats.
	r2, body2 := get(t, ts.URL+"/debug/tracez?format=json&id="+rid)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("tracez status %d", r2.StatusCode)
	}
	var page obs.TracezPage
	if err := json.Unmarshal(body2, &page); err != nil {
		t.Fatalf("tracez JSON: %v", err)
	}
	if len(page.Recent) == 0 || page.Recent[0].ID != rid {
		t.Fatalf("tracez?id=%s did not return the trace", rid)
	}
	r3, body3 := get(t, ts.URL+"/debug/tracez?id="+rid)
	if r3.StatusCode != http.StatusOK || !bytes.Contains(body3, []byte(rid)) {
		t.Fatalf("text tracez missing the trace: status %d", r3.StatusCode)
	}
}

// TestServePromExposition: the Prometheus view of /metricsz parses
// strictly, its histograms are internally consistent, the core
// families are present, and every value Prometheus mirrors from the
// JSON document agrees with it. The JSON-to-family mapping is written
// out by hand here, independent of the struct tags that drive the
// renderer.
func TestServePromExposition(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "model.snap")
	fh, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := system(t).Save(fh); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	_, ts := newTestServer(t, durableConfig(dir))
	for i := 0; i < 5; i++ {
		resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: i, K: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("suggest %d: status %d", i, resp.StatusCode)
		}
	}
	if resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/mirror", PatientPutRequest{Regimen: []int{0, 2}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/admin/reload", ReloadRequest{Path: snap}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}
	post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "mirror", K: 2})
	post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: 0, K: 2})

	// One scrape of each format, JSON first: the Prometheus scrape
	// therefore counts exactly one more metricsz request.
	respJSON, bodyJSON := get(t, ts.URL+"/metricsz")
	if respJSON.StatusCode != http.StatusOK {
		t.Fatalf("json metricsz status %d", respJSON.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(bodyJSON, &doc); err != nil {
		t.Fatalf("json metricsz no longer parses: %v", err)
	}
	var m Metrics
	if err := json.Unmarshal(bodyJSON, &m); err != nil {
		t.Fatalf("json metricsz no longer decodes into Metrics: %v", err)
	}
	resp, body := get(t, ts.URL+"/metricsz?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content-type %q, want %q", ct, obs.PromContentType)
	}
	set, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition failed to parse: %v\n%s", err, body)
	}
	if _, err := set.CheckHistograms(); err != nil {
		t.Fatalf("inconsistent histograms: %v", err)
	}
	for _, fam := range []string{
		"dssddi_build_info", "dssddi_requests_total",
		"dssddi_request_duration_seconds", "dssddi_epoch",
		"dssddi_cache_hits_total", "dssddi_score_batches_total",
	} {
		if _, ok := set.Types[fam]; !ok {
			t.Fatalf("metric family %q missing from exposition", fam)
		}
	}
	count, ok := set.Value("dssddi_requests_total", map[string]string{"endpoint": "suggest"})
	if !ok || count < 5 {
		t.Fatalf("dssddi_requests_total{endpoint=suggest} = %v (present=%v), want >= 5", count, ok)
	}

	mirror := func(path, family string, labels map[string]string, delta float64) {
		t.Helper()
		want, ok := jsonNumber(doc, path)
		if !ok {
			t.Fatalf("JSON has no number at %s", path)
		}
		got, ok := set.Value(family, labels)
		if !ok || got != want+delta {
			t.Errorf("%s%v = %v (present %v), JSON %s = %v", family, labels, got, ok, path, want)
		}
	}
	for path, family := range map[string]string{
		"epoch":                           "dssddi_epoch",
		"reloads":                         "dssddi_reloads_total",
		"memory.model_bytes":              "dssddi_model_resident_bytes",
		"memory.registry_embedding_bytes": "dssddi_registry_embedding_bytes",
		"batching.batches":                "dssddi_score_batches_total",
		"batching.requests":               "dssddi_score_batched_requests_total",
		"registry.patients":               "dssddi_registry_patients",
		"registry.writes":                 "dssddi_registry_writes_total",
		"registry.reembeds":               "dssddi_registry_reembeds_total",
		"registry.replica_applies":        "dssddi_replica_applies_total",
		"registry.replica_stale":          "dssddi_replica_apply_stale_total",
		"deadline_timeouts":               "dssddi_deadline_timeouts_total",
		"wal.records":                     "dssddi_wal_records",
		"wal.bytes":                       "dssddi_wal_bytes",
		"wal.syncs":                       "dssddi_wal_syncs_total",
		"wal.checkpoints":                 "dssddi_wal_checkpoints_total",
	} {
		mirror(path, family, nil, 0)
	}
	for _, cache := range []string{"suggest", "explain"} {
		l := map[string]string{"cache": cache}
		mirror(cache+"_cache.hits", "dssddi_cache_hits_total", l, 0)
		mirror(cache+"_cache.misses", "dssddi_cache_misses_total", l, 0)
	}
	if v, ok := set.Value("dssddi_precision_info", map[string]string{"precision": doc["memory"].(map[string]any)["precision"].(string)}); !ok || v != 1 {
		t.Errorf("dssddi_precision_info does not carry the JSON precision")
	}
	endpoints := doc["endpoints"].(map[string]any)
	var sheds float64
	for e := range endpoints {
		l := map[string]string{"endpoint": e}
		delta := 0.0
		if e == "metricsz" {
			delta = 1
		}
		mirror("endpoints."+e+".requests", "dssddi_requests_total", l, delta)
		mirror("endpoints."+e+".requests", "dssddi_request_duration_seconds_count", l, delta)
		mirror("endpoints."+e+".errors", "dssddi_request_errors_total", l, 0)
		s, _ := jsonNumber(doc, "endpoints."+e+".sheds") // omitted when zero
		if got, ok := set.Value("dssddi_sheds_total", l); !ok || got != s {
			t.Errorf("dssddi_sheds_total{endpoint=%s} = %v (present %v), JSON %v", e, got, ok, s)
		}
		sheds += s
	}
	if total, _ := jsonNumber(doc, "sheds"); total != sheds {
		t.Errorf("JSON sheds %v != sum of per-endpoint sheds %v", total, sheds)
	}
	if writes, _ := jsonNumber(doc, "registry.writes"); writes < 1 {
		t.Errorf("registry.writes = %v, want the PUT counted", writes)
	}
	if reloads, _ := jsonNumber(doc, "reloads"); reloads != 1 {
		t.Errorf("reloads = %v, want 1", reloads)
	}

	// Health carries the build identity.
	respH, bodyH := get(t, ts.URL+"/healthz")
	if respH.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", respH.StatusCode)
	}
	var h struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.Unmarshal(bodyH, &h); err != nil {
		t.Fatal(err)
	}
	if h.Build.GoVersion == "" {
		t.Fatalf("healthz missing build info: %s", bodyH)
	}
}

// jsonNumber reads the number at a dotted path of a decoded JSON
// document.
func jsonNumber(doc map[string]any, path string) (float64, bool) {
	var v any = doc
	for _, key := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return 0, false
		}
		v = m[key]
	}
	n, ok := v.(float64)
	return n, ok
}
