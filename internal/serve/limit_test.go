package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// The limiter's contract, unit-level: maxInflight tokens execute,
// maxQueue more wait, the rest shed instantly.
func TestLimiterAdmitQueueShed(t *testing.T) {
	l := newLimiter(2, 1)
	bg := context.Background()

	rel1, st := l.acquire(bg)
	if st != 0 || rel1 == nil {
		t.Fatalf("first acquire: status %d", st)
	}
	rel2, st := l.acquire(bg)
	if st != 0 {
		t.Fatalf("second acquire: status %d", st)
	}

	// Inflight full: the next caller queues; verify by acquiring from a
	// goroutine and seeing it complete only after a release.
	admitted := make(chan struct{})
	go func() {
		rel3, st := l.acquire(bg)
		if st != 0 {
			t.Errorf("queued acquire: status %d", st)
		} else {
			defer rel3()
		}
		close(admitted)
	}()
	// Give the goroutine time to take the queue slot, then overflow it.
	deadline := time.Now().Add(time.Second)
	for len(l.queue) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, st := l.acquire(bg); st != http.StatusServiceUnavailable {
		t.Fatalf("overflow acquire: status %d, want 503", st)
	}
	if l.shedCount() != 1 {
		t.Fatalf("sheds = %d, want 1", l.shedCount())
	}
	select {
	case <-admitted:
		t.Fatal("queued acquire admitted while inflight was full")
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	select {
	case <-admitted:
	case <-time.After(time.Second):
		t.Fatal("queued acquire never admitted after a release")
	}
	rel2()
}

// A queued request whose deadline expires leaves the queue with 504.
func TestLimiterQueueDeadline(t *testing.T) {
	l := newLimiter(1, 4)
	rel, st := l.acquire(context.Background())
	if st != 0 {
		t.Fatalf("acquire: status %d", st)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, st := l.acquire(ctx); st != http.StatusGatewayTimeout {
		t.Fatalf("expired queued acquire: status %d, want 504", st)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("expired acquire did not leave the queue promptly")
	}
	if len(l.queue) != 0 {
		t.Fatal("expired waiter leaked its queue slot")
	}
}

// nil limiter = unlimited.
func TestLimiterNilAdmitsEverything(t *testing.T) {
	var l *limiter
	rel, st := l.acquire(context.Background())
	if st != 0 {
		t.Fatalf("nil limiter status %d", st)
	}
	rel()
	if l.shedCount() != 0 {
		t.Fatal("nil limiter counted sheds")
	}
}

// holdSuggestSlot takes the suggest limiter's only inflight token from
// the test, so the next suggest request waits in the admission queue
// until the returned release runs.
func holdSuggestSlot(t *testing.T, s *Server) (release func()) {
	t.Helper()
	release, st := s.limits["suggest"].acquire(context.Background())
	if st != 0 {
		t.Fatalf("holding the suggest slot: status %d", st)
	}
	return release
}

// waitQueued blocks until n requests wait in the suggest admission
// queue.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(s.limits["suggest"].queue) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never reached the suggest admission queue", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// End-to-end overload: with inflight 1 / queue 1, the inflight slot
// held and a second request queued, a third concurrent request is shed
// FAST (503 + Retry-After) while the queued one completes normally once
// the slot frees — sustained overload degrades into explicit rejections
// with bounded latency for admitted work, not an unbounded queue.
func TestOverloadShedsFastWithRetryAfter(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	p := sys.Data().TestPatients()[0]

	type result struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	req := func() result {
		t0 := time.Now()
		resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 3})
		return result{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(t0)}
	}

	release := holdSuggestSlot(t, srv)
	queued := 0 // status of the queued request; 0 if it failed in transport
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, _ := postQuiet(ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 3}); resp != nil {
			queued = resp.StatusCode
		}
	}()
	waitQueued(t, srv, 1)

	shed := req() // inflight busy, queue full -> immediate 503
	if shed.status != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", shed.status)
	}
	if shed.retryAfter == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if shed.elapsed > 150*time.Millisecond {
		t.Fatalf("shed took %v; must fast-fail while the admitted request still waits", shed.elapsed)
	}
	release()
	<-done
	if queued != http.StatusOK {
		t.Fatalf("queued request: status %d, want 200", queued)
	}

	// The shed is visible in /metricsz: per-endpoint and total.
	_, body := get(t, ts.URL+"/metricsz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Sheds < 1 || m.Endpoints["suggest"].Sheds < 1 {
		t.Fatalf("sheds not counted: total=%d suggest=%d", m.Sheds, m.Endpoints["suggest"].Sheds)
	}
}

// Deadline propagation: an already-expired X-Deadline-Ms is answered
// 504 immediately; a short deadline that runs out while the request
// waits in the admission queue is abandoned there instead of waiting
// for the slot; and a context that expired before scoring never
// reaches the engine.
func TestDeadlinePropagation(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	p := sys.Data().TestPatients()[0]

	send := func(deadlineMs string) (*http.Response, time.Duration) {
		body, _ := json.Marshal(SuggestRequest{Patient: p, K: 3})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/suggest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineHeader, deadlineMs)
		req.Header.Set("Cache-Control", "no-cache")
		t0 := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, time.Since(t0)
	}

	resp, elapsed := send("0")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("dead-on-arrival request took %v", elapsed)
	}

	// 40ms budget with the only inflight slot held: the admission wait
	// must be abandoned when the deadline fires, not when the slot
	// frees.
	release := holdSuggestSlot(t, srv)
	resp, elapsed = send("40")
	release()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("short deadline: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("short-deadline request took %v; admission wait was not aborted", elapsed)
	}

	// A roomy deadline serves normally.
	resp, _ = send("5000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("roomy deadline: status %d, want 200", resp.StatusCode)
	}

	_, body := get(t, ts.URL+"/metricsz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.DeadlineTimeouts < 2 {
		t.Fatalf("deadline_timeouts = %d, want >= 2", m.DeadlineTimeouts)
	}

	// A context that expired after admission stops before the engine:
	// the handler's 504 path, with no score-engine call counted.
	ep := srv.epoch.Load()
	calls := ep.scoreCalls.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ep.suggest(ctx, p, 3); !isDeadlineErr(err) {
		t.Fatalf("suggest on an expired context: err %v, want a context error", err)
	}
	if got := ep.scoreCalls.Load(); got != calls {
		t.Fatalf("expired suggest reached the engine: %d score calls, was %d", got, calls)
	}
}
