package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a minimal dssddi-serve stand-in: a live /healthz (so
// the prober keeps it in rotation) plus one configurable handler for
// every /v1 route. It lets tests observe exactly what the router sends
// without training a model. The server is returned so a test can kill
// it.
func fakeBackend(t *testing.T, v1 http.HandlerFunc) (name string, ts *httptest.Server) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","epoch":1}`))
	})
	mux.HandleFunc("/v1/", v1)
	ts = httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), ts
}

func bootRouter(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })
	return rts
}

// Every proxied attempt carries X-Deadline-Ms: the per-attempt budget
// in milliseconds, capped by the attempt timeout and by whatever the
// client itself propagated.
func TestRouterStampsDeadline(t *testing.T) {
	var stamped atomic.Int64
	name, _ := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.ParseInt(r.Header.Get(deadlineHeader), 10, 64)
		if err != nil {
			t.Errorf("backend got %s=%q: %v", deadlineHeader, r.Header.Get(deadlineHeader), err)
		}
		stamped.Store(ms)
		w.Write([]byte(`{}`))
	})
	rts := bootRouter(t, Config{Backends: []string{name}, Timeout: 5 * time.Second})

	resp, _ := postJSON(t, rts.URL+"/v1/suggest", map[string]any{"patient": 0, "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suggest: status %d", resp.StatusCode)
	}
	if ms := stamped.Load(); ms <= 0 || ms > 5000 {
		t.Fatalf("stamped deadline %dms, want in (0, 5000]", ms)
	}

	// A client-propagated deadline tighter than the router's own budget
	// wins; a looser one is clamped to the attempt timeout.
	for _, tc := range []struct {
		client string
		maxMs  int64
	}{
		{"250", 250},
		{"60000", 5000},
	} {
		req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/suggest",
			strings.NewReader(`{"patient": 0, "k": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineHeader, tc.client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("suggest with deadline %s: status %d", tc.client, resp.StatusCode)
		}
		if ms := stamped.Load(); ms <= 0 || ms > tc.maxMs {
			t.Fatalf("client deadline %s: stamped %dms, want in (0, %d]", tc.client, ms, tc.maxMs)
		}
	}
}

// A request whose budget runs out before any backend answers gets a
// fast 504, not a hang: the attempt context is cut at the remaining
// budget and no further retries are attempted.
func TestRouterBudgetExhausted(t *testing.T) {
	name, _ := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte(`{}`))
	})
	rts := bootRouter(t, Config{
		Backends: []string{name}, Timeout: 5 * time.Second,
		MaxRetries: 2, RetryBackoff: 5 * time.Millisecond,
	})

	// Already-expired budget: answered without touching a backend.
	req, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/suggest",
		strings.NewReader(`{"patient": 0, "k": 1}`))
	req.Header.Set(deadlineHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired budget: status %d, want 504", resp.StatusCode)
	}

	// A 50ms budget against a 300ms backend: the attempt is cut off at
	// the deadline and the router answers 504 well before the backend
	// would have.
	req, _ = http.NewRequest(http.MethodPost, rts.URL+"/v1/suggest",
		strings.NewReader(`{"patient": 0, "k": 1}`))
	req.Header.Set(deadlineHeader, "50")
	t0 := time.Now()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exhausted budget: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("budget-bound request took %v; the slow backend's clock leaked through", elapsed)
	}

	// Both 504s are visible in /metricsz.
	mresp, body := doJSON(t, http.MethodGet, rts.URL+"/metricsz", nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: status %d", mresp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.DeadlineExhausted < 2 {
		t.Fatalf("deadline_exhausted = %d, want >= 2", m.DeadlineExhausted)
	}
}

// A pinned patient whose owning shard is out of rotation gets a 503
// that names the condition: Retry-After derived from the ejection
// cooldown, and a distinct pinned_unavailable counter — operators can
// tell "the shard holding this patient is down" apart from generic
// proxy errors.
func TestRouterPinnedUnavailableRetryAfter(t *testing.T) {
	f := bootFleet(t, 2, "", fastConfig())

	const id = "pin-me"
	resp, _ := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{0, 1}})
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	owner := resp.Header.Get("X-Backend")
	if owner == "" {
		t.Fatal("registration response missing X-Backend")
	}

	// Kill the owning backend and wait for the prober to eject it.
	for i, name := range f.names {
		if name == owner {
			f.tss[i].Close()
		}
	}
	waitFor(t, "owner ejection", 5*time.Second, func() bool {
		return !f.router.backends[owner].health.Healthy()
	})

	resp, _ = doJSON(t, http.MethodGet, f.rts.URL+"/v1/patients/"+id, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pinned read with dead owner: status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("pinned 503 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	mresp, body := doJSON(t, http.MethodGet, f.rts.URL+"/metricsz", nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: status %d", mresp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.PinnedUnavailable < 1 {
		t.Fatalf("pinned_unavailable = %d, want >= 1", m.PinnedUnavailable)
	}
}

// RetryAfter quotes the remaining cooldown when ejected and a full
// cooldown otherwise, and retryAfterSeconds rounds up to whole
// seconds with a floor of 1.
func TestHealthRetryAfter(t *testing.T) {
	m := newHealthMachine(1, 10*time.Second)
	now := time.Now()
	if got := m.RetryAfter(now); got != 10*time.Second {
		t.Fatalf("healthy RetryAfter = %v, want full cooldown", got)
	}
	m.OnFailure(now) // ejects (failAfter=1)
	if got := m.RetryAfter(now.Add(4 * time.Second)); got != 6*time.Second {
		t.Fatalf("ejected RetryAfter = %v, want 6s remaining", got)
	}
	if got := m.RetryAfter(now.Add(11 * time.Second)); got != 10*time.Second {
		t.Fatalf("cooldown-elapsed RetryAfter = %v, want full cooldown", got)
	}
	for d, want := range map[time.Duration]string{
		300 * time.Millisecond:  "1",
		time.Second:             "1",
		1100 * time.Millisecond: "2",
		-time.Second:            "1",
	} {
		if got := retryAfterSeconds(d); got != want {
			t.Fatalf("retryAfterSeconds(%v) = %s, want %s", d, got, want)
		}
	}
}
