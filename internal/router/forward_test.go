package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A backend response longer than MaxBodyBytes is never relayed, on the
// replicated pinned read and on the un-pinned walk alike: the client
// gets a 502 naming the limit, the attempt is not retried, and the
// deterministic oversize reply is no transport error, so it cannot
// eject a healthy backend. The body is streamed chunked, so no
// Content-Length warns the router in advance.
func TestRouterOversizeResponse(t *testing.T) {
	var hits atomic.Int64
	huge := func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for i := 0; i < 32; i++ { // 2 MiB
			w.Write(chunk)
			w.(http.Flusher).Flush()
		}
	}
	cfg := replConfig()
	nameA, _ := fakeBackend(t, huge)
	nameB, _ := fakeBackend(t, huge)
	cfg.Backends = []string{nameA, nameB}
	rts := bootRouter(t, cfg)

	for _, tc := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/v1/patients/oversize", nil},
		{http.MethodPost, "/v1/scores", map[string]any{"patients": []int{0}}},
	} {
		for i := 0; i < 3; i++ {
			before := hits.Load()
			resp, body := doJSON(t, tc.method, rts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("%s %s: status %d with %d body bytes, want 502", tc.method, tc.path, resp.StatusCode, len(body))
			}
			if !strings.Contains(string(body), strconv.Itoa(1<<20)) {
				t.Fatalf("%s %s: 502 body %s does not name the %d-byte limit", tc.method, tc.path, body, 1<<20)
			}
			if n := hits.Load() - before; n != 1 {
				t.Fatalf("%s %s: %d backend attempts, want 1 (an oversize reply is not retried)", tc.method, tc.path, n)
			}
		}
	}

	m := routerMetrics(t, rts.URL)
	for name, bm := range m.Backends {
		if bm.State != "healthy" || bm.Errors != 0 {
			t.Fatalf("backend %s: state %s, %d transport errors; an oversize reply must not count against health", name, bm.State, bm.Errors)
		}
	}
	if m.ProxyErrors != 6 {
		t.Fatalf("proxy_errors = %d, want 6", m.ProxyErrors)
	}
}

// The largest legitimate response — /v1/scores at the backends'
// default MaxScoreBatch of 256 patients — is relayed byte-identical to
// the backend's direct answer: the response bound does not bite on
// real traffic.
func TestRouterRelaysMaxScoreBatch(t *testing.T) {
	f := bootFleet(t, 2, "", fastConfig())
	patients := make([]int, 256)
	for i := range patients {
		patients[i] = i % 40 // every index is in the test cohort
	}
	req := map[string]any{"patients": patients}
	resp, routed := postJSON(t, f.rts.URL+"/v1/scores", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed scores: status %d: %.200s", resp.StatusCode, routed)
	}
	var served int
	for i, name := range f.names {
		if name == resp.Header.Get("X-Backend") {
			served = i
		}
	}
	dresp, direct := postJSON(t, f.tss[served].URL+"/v1/scores", req)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct scores: status %d", dresp.StatusCode)
	}
	if !bytes.Equal(routed, direct) {
		t.Fatalf("routed scores (%d bytes) differ from the direct answer (%d bytes)", len(routed), len(direct))
	}
	if len(direct) < 256<<10 {
		t.Fatalf("max-batch scores response is %d bytes; too small to stand for the largest legitimate reply", len(direct))
	}
}

// The three walks share one failure reply. For each — an un-pinned
// read, a replicated pinned read and a replicated write — an expired
// client deadline is a 504 answered before any backend is touched,
// and a fleet entirely out of rotation is a 503 with Retry-After when
// the request is pinned, a 502 when it is not. Every one of them is a
// proxy error.
func TestRouterDeadlineAndUnavailableReplies(t *testing.T) {
	for _, tc := range []struct {
		walk, method, path string
		body               string
		pinned             bool
	}{
		{"unpinned read", http.MethodPost, "/v1/suggest", `{"patient": 0, "k": 1}`, false},
		{"replicated pinned read", http.MethodGet, "/v1/patients/walk", "", true},
		{"replicated write", http.MethodPut, "/v1/patients/walk", `{"regimen": [0, 1]}`, true},
	} {
		t.Run(tc.walk, func(t *testing.T) {
			var hits atomic.Int64
			count := func(w http.ResponseWriter, _ *http.Request) {
				hits.Add(1)
				w.WriteHeader(http.StatusInternalServerError)
			}
			nameA, tsA := fakeBackend(t, count)
			nameB, tsB := fakeBackend(t, count)
			cfg := replConfig()
			cfg.Backends = []string{nameA, nameB}
			rts := bootRouter(t, cfg)
			send := func(deadline string) *http.Response {
				t.Helper()
				req, err := http.NewRequest(tc.method, rts.URL+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if deadline != "" {
					req.Header.Set(deadlineHeader, deadline)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp
			}

			before := routerMetrics(t, rts.URL)
			if resp := send("0"); resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
			}
			after := routerMetrics(t, rts.URL)
			if hits.Load() != 0 {
				t.Fatalf("expired deadline reached a backend %d times", hits.Load())
			}
			if d := after.DeadlineExhausted - before.DeadlineExhausted; d != 1 {
				t.Fatalf("expired deadline: deadline_exhausted +%d, want +1", d)
			}
			if d := after.ProxyErrors - before.ProxyErrors; d != 1 {
				t.Fatalf("expired deadline: proxy_errors +%d, want +1", d)
			}

			tsA.Close()
			tsB.Close()
			waitFor(t, "every backend out of rotation", 5*time.Second, func() bool {
				resp, body := doJSON(t, http.MethodGet, rts.URL+"/healthz", nil)
				var h HealthResponse
				return resp.StatusCode == http.StatusServiceUnavailable && json.Unmarshal(body, &h) == nil && h.Healthy == 0
			})
			before = routerMetrics(t, rts.URL)
			resp := send("")
			after = routerMetrics(t, rts.URL)
			if tc.pinned {
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("group out of rotation: status %d, want 503", resp.StatusCode)
				}
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
					t.Fatalf("503 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
				}
				if d := after.PinnedUnavailable - before.PinnedUnavailable; d != 1 {
					t.Fatalf("pinned_unavailable +%d, want +1", d)
				}
			} else if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("fleet out of rotation: status %d, want 502", resp.StatusCode)
			}
			if d := after.ProxyErrors - before.ProxyErrors; d != 1 {
				t.Fatalf("fleet out of rotation: proxy_errors +%d, want +1", d)
			}
		})
	}
}
