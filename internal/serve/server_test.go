package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dssddi"
)

var (
	sysOnce sync.Once
	testSys *dssddi.System
)

// system trains one small shared system for every server test.
func system(t testing.TB) *dssddi.System {
	t.Helper()
	sysOnce.Do(func() {
		data := dssddi.GenerateChronic(11, 50, 40)
		cfg := dssddi.DefaultConfig()
		cfg.DDIEpochs = 15
		cfg.MDEpochs = 25
		cfg.Hidden = 16
		sys := dssddi.New(cfg)
		if err := sys.Train(data); err != nil {
			panic(err)
		}
		testSys = sys
	})
	if testSys == nil {
		t.Fatal("shared test system failed to train")
	}
	return testSys
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(system(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSuggestMatchesLibrary(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[0]

	resp, body := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SuggestResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Suggestions) != len(want) {
		t.Fatalf("got %d suggestions, want %d", len(got.Suggestions), len(want))
	}
	for i, sg := range want {
		g := got.Suggestions[i]
		if g.DrugID != sg.DrugID || g.DrugName != sg.DrugName || g.Score != sg.Score {
			t.Fatalf("suggestion %d diverged: %+v vs %+v", i, g, sg)
		}
	}
	if got.Regimen == nil {
		t.Fatal("regimen missing")
	}
}

func TestSuggestCacheHit(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[1]

	first, firstBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if first.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first call X-Cache = %q, want MISS", first.Header.Get("X-Cache"))
	}
	second, secondBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if second.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second call X-Cache = %q, want HIT", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cached body differs from computed body")
	}
}

// TestConcurrentBatchedSuggestMatchesSerial is the acceptance-critical
// test: under concurrent load (run with -race) the cached server, each
// miss scored on its own request goroutine, must return suggestions
// bitwise equal to ranking the library's Scores row for the patient.
func TestConcurrentBatchedSuggestMatchesSerial(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{})

	patients := sys.Data().TestPatients()
	if len(patients) > 10 {
		patients = patients[:10]
	}
	// Serial ground truth via the library.
	wantRows := make(map[int][]float64, len(patients))
	for _, p := range patients {
		rows, err := sys.Scores([]int{p})
		if err != nil {
			t.Fatal(err)
		}
		wantRows[p] = rows[0]
	}

	const goroutines = 24
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := patients[(g+it)%len(patients)]
				resp, body := postQuiet(ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
				if resp == nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("patient %d: bad response %v: %s", p, resp, body)
					return
				}
				var got SuggestResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- err
					return
				}
				want, err := sys.SuggestFromScores(wantRows[p], 4)
				if err != nil {
					errs <- err
					return
				}
				for i, sg := range want {
					g := got.Suggestions[i]
					if g.DrugID != sg.DrugID || g.Score != sg.Score {
						errs <- fmt.Errorf("patient %d suggestion %d diverged under load: %+v vs %+v", p, i, g, sg)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every cache miss is one score-engine call for one patient. Each
	// patient misses at least once; concurrent misses on the same
	// patient may each score, but never more than one per request.
	m := srv.gatherMetrics(srv.epoch.Load()).Batching
	if m.Requests != m.Batches || m.Batches < int64(len(patients)) || m.Batches > goroutines*iters {
		t.Fatalf("scoring counters implausible: %d calls scoring %d patients for %d requests over %d patients",
			m.Batches, m.Requests, goroutines*iters, len(patients))
	}
}

// postQuiet is post without *testing.T (for goroutines).
func postQuiet(url string, body any) (*http.Response, []byte) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func TestScoresEndpoint(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{})
	patients := sys.Data().TestPatients()[:3]

	resp, body := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: patients})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ScoresResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Scores(patients)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scores) != len(want) || got.Drugs != sys.Data().NumDrugs() {
		t.Fatalf("shape wrong: %d rows, %d drugs", len(got.Scores), got.Drugs)
	}
	for i := range want {
		for j := range want[i] {
			if got.Scores[i][j] != want[i][j] {
				t.Fatalf("score (%d,%d) differs", i, j)
			}
		}
	}

	// Validation: an out-of-range patient is unknown (404), a negative
	// one malformed (400), and oversized batches are rejected.
	if resp, body := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: []int{1 << 30}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range patient: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: []int{-1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("negative patient must 400")
	}
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty patients must 400")
	}
	big := make([]int, 10_000)
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: big}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("oversized batch must 400")
	}

	// The one accepted request was one score-engine call over its three
	// patients; the rejected ones never reached the engine.
	if m := srv.gatherMetrics(srv.epoch.Load()).Batching; m.Batches != 1 || m.Requests != int64(len(patients)) {
		t.Fatalf("scoring counters: %d calls scoring %d patients, want 1 and %d", m.Batches, m.Requests, len(patients))
	}
}

func TestExplainEndpoint(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[2]

	// Patient form must match the library's suggest-then-explain.
	resp, body := post(t, ts.URL+"/v1/explain", ExplainRequest{Patient: &p, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ExplainResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	suggs, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.ExplainSuggestions(suggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text || got.SS != want.SS {
		t.Fatalf("explain diverged:\nserver %q\nlibrary %q", got.Text, want.Text)
	}

	// Drug-set form, plus cache behaviour (key is order-independent).
	r1, b1 := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{5, 2, 9}})
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("drug-set explain: %d %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, b2 := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{9, 5, 2}})
	if r2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("permuted drug set must hit the cache, got %q", r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached explain body differs")
	}

	if resp, _ := post(t, ts.URL+"/v1/explain", ExplainRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty explain request must 400")
	}
	if resp, _ := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{-1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("negative drug must 400")
	}
}

func TestAlertsEndpoint(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{})

	// Find a recorded antagonistic pair to guarantee an alert.
	ddi := sys.Data().Dataset().DDI
	el := ddi.Edges()
	var u, v int
	found := false
	for i := range el.U {
		if el.S[i] == -1 {
			u, v, found = el.U[i], el.V[i], true
			break
		}
	}
	if !found {
		t.Skip("no antagonistic edge in the synthetic graph")
	}
	resp, body := post(t, ts.URL+"/v1/alerts", AlertsRequest{Drugs: []int{u, v}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AlertsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.ListAlerts) == 0 {
		t.Fatalf("antagonistic pair (%d,%d) produced no alert: %s", u, v, body)
	}
	if got.MaxSeverity != "critical" && got.MaxSeverity != "major" {
		t.Fatalf("recorded antagonism must tier major or critical, got %q", got.MaxSeverity)
	}
	if got.ListAlerts[0].Message == "" {
		t.Fatal("alert message empty")
	}

	// With a patient, the regimen screening section appears.
	p := sys.Data().TestPatients()[0]
	resp, body = post(t, ts.URL+"/v1/alerts", AlertsRequest{Drugs: []int{u, v}, Patient: &p})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Regimen == nil {
		t.Fatal("patient screening must include the regimen")
	}

	_ = srv
	if resp, _ := post(t, ts.URL+"/v1/alerts", AlertsRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty alerts request must 400")
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Model.Drugs != sys.Data().NumDrugs() {
		t.Fatalf("healthz payload wrong: %s", body)
	}
	if health.Model.DatasetSHA256 == "" {
		t.Fatal("healthz must expose the dataset digest")
	}

	// Drive one suggest so the counters move.
	p := sys.Data().TestPatients()[0]
	post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p})

	resp, body = get(t, ts.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["suggest"].Requests < 1 {
		t.Fatalf("suggest counter did not move: %s", body)
	}
	if m.Endpoints["healthz"].Requests < 1 {
		t.Fatal("healthz counter did not move")
	}
	if m.Batching.Requests < 1 {
		t.Fatal("scoring counters did not move")
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/suggest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on suggest: %d", resp.StatusCode)
	}
}

func TestCacheDisabled(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{CacheSize: -1})
	p := sys.Data().TestPatients()[0]
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p})
		if resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("call %d: caching disabled must always MISS, got %q", i, resp.Header.Get("X-Cache"))
		}
	}
}

// TestSuggestAfterCloseUnavailable: once the server is closed there is
// no epoch to score on, so a suggest is answered 503 at once instead of
// hanging or touching the retired model.
func TestSuggestAfterCloseUnavailable(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{})
	srv.Close()
	t0 := time.Now()
	resp, body := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: sys.Data().TestPatients()[0], K: 3})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("suggest after Close: status %d, want 503: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Fatalf("suggest after Close took %v; must fail fast", elapsed)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(4, 2)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if got := c.Len(); got > 4 {
		t.Fatalf("cache holds %d entries, cap 4", got)
	}
	if newLRUCache(0, 4) != nil {
		t.Fatal("zero capacity must disable the cache")
	}
	// nil cache is a valid always-miss cache.
	var nilCache *lruCache
	if _, ok := nilCache.Get("x"); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.Put("x", nil) // must not panic
}

// TestCacheControlNoCacheBypasses pins the cold-path benchmarking
// hook: a Cache-Control: no-cache request is recomputed every time,
// never reads the cache and never populates it — but returns the
// byte-identical body a cached request would.
func TestCacheControlNoCacheBypasses(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[2]

	cold := func() (*http.Response, []byte) {
		buf, _ := json.Marshal(SuggestRequest{Patient: p, K: 4})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/suggest", bytes.NewReader(buf))
		req.Header.Set("Cache-Control", "no-cache")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}

	first, firstBody := cold()
	if first.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first no-cache call X-Cache = %q, want MISS", first.Header.Get("X-Cache"))
	}
	second, secondBody := cold()
	if second.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("second no-cache call X-Cache = %q, want MISS (nothing may be stored)", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cold responses must be identical")
	}

	// A normal request now misses (no-cache never populated the cache)
	// and then hits; the bodies all agree.
	warm1, warmBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if warm1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first cached-path call X-Cache = %q, want MISS", warm1.Header.Get("X-Cache"))
	}
	warm2, hitBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if warm2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second cached-path call X-Cache = %q, want HIT", warm2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, warmBody) || !bytes.Equal(warmBody, hitBody) {
		t.Fatal("cold, computed and cached bodies must be byte-identical")
	}
}

// TestServeRequestCycleAllocBudget gates the allocations of one full
// cold serve request — handler, streamed top-k scoring, response
// encoding — with caching bypassed and screening off. The budget
// includes the test's own recorder and request plumbing, so the
// serving path itself sits well below it.
func TestServeRequestCycleAllocBudget(t *testing.T) {
	const budget = 120
	sys := system(t)
	s, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	handler := s.Handler()

	p := sys.Data().TestPatients()[0]
	screen := false
	reqBody, _ := json.Marshal(SuggestRequest{Patient: p, K: 4, Screen: &screen})
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/suggest", bytes.NewReader(reqBody))
		req.Header.Set("Cache-Control", "no-cache")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	run() // warm pools
	got := testing.AllocsPerRun(20, run)
	if got > budget {
		t.Fatalf("cold serve request cycle allocates %.1f objects, budget %d", got, budget)
	}
	t.Logf("cold serve request cycle: %.1f allocs/op", got)
}

// BenchmarkServeSuggestCold drives one full cold suggest request —
// handler, streamed top-k scoring, encode — per iteration, bypassing
// the result cache. `make profile` runs this under the CPU and heap
// profilers; it is the serve hot path minus the network stack.
func BenchmarkServeSuggestCold(b *testing.B) {
	sys := system(b)
	s, err := New(sys, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	handler := s.Handler()
	screen := false
	reqBody, _ := json.Marshal(SuggestRequest{Patient: sys.Data().TestPatients()[0], K: 4, Screen: &screen})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/suggest", bytes.NewReader(reqBody))
		req.Header.Set("Cache-Control", "no-cache")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
