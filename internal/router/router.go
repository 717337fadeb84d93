package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssddi/internal/obs"
)

// Config tunes the router. Backends is required; everything else has
// serviceable defaults from fill.
type Config struct {
	// Backends is the fixed pool of dssddi-serve addresses
	// (host:port). The ring is built over exactly this set; health
	// ejection takes a member out of rotation without changing the
	// ring, so its keys spill deterministically to ring successors and
	// return when it recovers.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 128).
	VNodes int
	// ReplicationFactor is how many ring-ordered backends hold each
	// registered patient's record: the owner plus R-1 successors
	// (default 1 — no replication, registry state is owner-only).
	ReplicationFactor int
	// WriteQuorum is how many replica-group acknowledgements a registry
	// mutation needs before the router acknowledges it (default 1: the
	// acting owner's WAL-backed ack). The effective quorum is bounded
	// by the members actually in rotation — a permanently dead replica
	// degrades durability, it does not wedge writes.
	WriteQuorum int
	// ProbeInterval is the active health-check cadence (default 1s).
	ProbeInterval time.Duration
	// FailAfter ejects a backend after this many consecutive transport
	// failures (default 3).
	FailAfter int
	// Cooldown is how long an ejected backend sits out before a
	// half-open trial probe (default 2s).
	Cooldown time.Duration
	// MaxRetries bounds additional attempts for idempotent requests
	// after a transport failure (default 2): reads, full-replace PUT and
	// DELETE. PATCH never retries.
	MaxRetries int
	// RetryBackoff is the initial backoff before a retry, doubling per
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// Timeout is the per-attempt client timeout (default 10s).
	Timeout time.Duration
	// RequestBudget bounds one routed request end to end: every
	// attempt and every backoff sleep spends from it, and each attempt
	// stamps the remaining budget onto the backend as X-Deadline-Ms so
	// the backend drops a queued request once the router has given up. A
	// client-supplied X-Deadline-Ms can only shrink the budget, never
	// extend it (default 2x Timeout).
	RequestBudget time.Duration
	// MaxIdleConns bounds the kept-alive connections per backend
	// (default 256).
	MaxIdleConns int
	// MaxBodyBytes bounds buffered request bodies and backend responses
	// (default 1<<20, matching the backends' own request cap). A longer
	// response is never relayed: the client gets a 502 naming the limit.
	MaxBodyBytes int64

	// TraceSample is the fraction of routed requests recorded into the
	// /debug/tracez rings (0 = off). A sampled request's trace carries
	// one span per proxy attempt, annotated with the backend tried and
	// every retry/failover/ejection event along the way.
	TraceSample float64
	// TraceRing is the capacity of each tracez ring (default
	// obs.DefaultTraceRing).
	TraceRing int
	// SlowMs, when positive, logs a warning for every routed request
	// slower than this many milliseconds (requires Logger).
	SlowMs int
	// Logger, when non-nil, receives structured access and fleet event
	// logs (ejections, recoveries, rollouts).
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("router: no backends configured")
	}
	seen := make(map[string]bool, len(c.Backends))
	for _, b := range c.Backends {
		if b == "" {
			return fmt.Errorf("router: empty backend address")
		}
		if seen[b] {
			return fmt.Errorf("router: duplicate backend %q", b)
		}
		seen[b] = true
	}
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.ReplicationFactor > len(c.Backends) {
		c.ReplicationFactor = len(c.Backends)
	}
	if c.WriteQuorum <= 0 {
		c.WriteQuorum = 1
	}
	if c.WriteQuorum > c.ReplicationFactor {
		c.WriteQuorum = c.ReplicationFactor
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 2 * c.Timeout
	}
	if c.MaxIdleConns <= 0 {
		c.MaxIdleConns = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return nil
}

// Router consistent-hashes patient keys over a health-checked backend
// pool and coordinates fleet-wide model rollouts.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	order    []string // sorted names: deterministic rollout order
	start    time.Time
	tracer   *obs.Tracer
	logger   *slog.Logger

	requests          atomic.Int64
	proxyErrors       atomic.Int64 // requests answered 502/503/504 by the router itself
	retriesTotal      atomic.Int64
	pinnedUnavailable atomic.Int64 // pinned-key 503s: the whole replica group is out of rotation
	deadlineExhausted atomic.Int64 // 504s: the request budget ran out before any backend answered
	rollouts          atomic.Int64
	rolloutFailures   atomic.Int64

	// Replication counters: replicaReads counts registered-patient
	// reads served by a non-owner group member; readRepairs counts
	// stale replicas refreshed by a failover read; quorumFailures
	// counts mutations refused because too few group members
	// acknowledged; antiEntropySyncs / antiEntropyRecords count
	// reconciliation rounds and the records they pushed. replLag is
	// the owner-ack to replica-ack fan-out latency distribution.
	replicaReads       atomic.Int64
	readRepairs        atomic.Int64
	quorumFailures     atomic.Int64
	replicationFanouts atomic.Int64
	antiEntropySyncs   atomic.Int64
	antiEntropyRecords atomic.Int64
	replLag            obs.Histogram

	reloadMu  sync.Mutex // serializes rollouts
	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	repairWG  sync.WaitGroup // in-flight async read repairs
}

// New builds a router over the configured backend pool and starts the
// active health prober. Backends start healthy — a down member is
// detected by the first probe (or proxied request) and ejected.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:       cfg,
		ring:      NewRing(cfg.VNodes),
		backends:  make(map[string]*backend, len(cfg.Backends)),
		start:     time.Now(),
		tracer:    obs.NewTracer(cfg.TraceSample, cfg.TraceRing),
		logger:    cfg.Logger,
		stopProbe: make(chan struct{}),
	}
	for _, name := range cfg.Backends {
		rt.ring.Add(name)
		rt.backends[name] = newBackend(name, cfg)
		rt.order = append(rt.order, name)
	}
	sort.Strings(rt.order)
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober and waits out in-flight read repairs.
func (rt *Router) Close() {
	close(rt.stopProbe)
	rt.probeWG.Wait()
	rt.repairWG.Wait()
}

// probeLoop actively probes every backend's /healthz on the
// configured cadence. Healthy members are verified (keeping their
// failure streak at zero); ejected members get a half-open trial once
// their cooldown elapses.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-ticker.C:
			for _, name := range rt.order {
				b := rt.backends[name]
				switch {
				case b.health.Healthy():
					rt.probe(b)
				case b.health.ProbeDue(time.Now()):
					rt.trial(b)
				}
			}
		}
	}
}

// probe hits one backend's /healthz. A 200 with a parsable epoch is
// success; anything else (transport error or bad status) counts
// toward ejection.
func (rt *Router) probe(b *backend) {
	h, _, err := b.fetchHealthz()
	if err != nil {
		rt.noteFailure(b, "probe", err)
		return
	}
	b.epoch.Store(h.Epoch)
	rt.noteSuccess(b)
}

// trial is the half-open recovery probe for an ejected backend. Under
// replication, answering /healthz is not enough to rejoin: the member
// missed every write fanned out while it was gone (or lost its disk
// entirely), so it must reconcile via anti-entropy — and prove digest
// convergence — before it takes traffic again. A failed trial or a
// failed reconcile re-ejects for a fresh cooldown.
func (rt *Router) trial(b *backend) {
	h, _, err := b.fetchHealthz()
	if err != nil {
		rt.noteFailure(b, "trial", err)
		return
	}
	b.epoch.Store(h.Epoch)
	if rt.cfg.ReplicationFactor > 1 {
		if err := rt.reconcile(b); err != nil {
			rt.noteFailure(b, "reconcile", err)
			return
		}
	}
	rt.noteSuccess(b)
}

// noteFailure feeds one transport failure into the backend's health
// machine and logs the ejection when this failure caused one.
func (rt *Router) noteFailure(b *backend, cause string, err error) {
	if b.health.OnFailure(time.Now()) && rt.logger != nil {
		rt.logger.Warn("backend ejected", "backend", b.name, "cause", cause, "error", err)
	}
}

// noteSuccess feeds one success into the health machine and logs a
// half-open recovery when this success completed one.
func (rt *Router) noteSuccess(b *backend) {
	if b.health.OnSuccess() && rt.logger != nil {
		rt.logger.Info("backend recovered", "backend", b.name)
	}
}

// Handler returns the routed HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/suggest", rt.handleSuggest)
	mux.HandleFunc("POST /v1/scores", rt.handleScores)
	mux.HandleFunc("POST /v1/explain", rt.handlePatientOrDrugs)
	mux.HandleFunc("POST /v1/alerts", rt.handlePatientOrDrugs)
	mux.HandleFunc("/v1/patients/{id}", rt.handlePatients)
	mux.HandleFunc("POST /v1/admin/reload", rt.handleReload)
	mux.HandleFunc("GET /v1/admin/registry/verify", rt.handleRegistryVerify)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metricsz", rt.handleMetricsz)
	mux.Handle("/debug/tracez", rt.tracer.Handler("dssddi-router"))
	return rt.observe(mux)
}

// Tracer exposes the router's trace rings to tests.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// statusWriter captures the response status for the access log and
// trace without buffering the body.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observe is the router's request middleware: it settles the request
// identity (accepting a well-formed client X-Request-Id, minting one
// otherwise) before any routing happens, so the same id is echoed on
// the response, forwarded to whichever backend ends up serving the
// request, and used for both tiers' tracez entries. Sampled requests
// additionally carry a trace that forward annotates with per-attempt
// spans.
func (rt *Router) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := obs.EnsureRequestID(r.Header)
		r.Header.Set(obs.RequestIDHeader, rid) // canonical form; forwarded to the backend
		w.Header().Set(obs.RequestIDHeader, rid)
		tr := rt.tracer.Start(rid, r.URL.Path)
		if tr != nil {
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(t0)
		rt.tracer.Finish(tr, status)
		if rt.logger == nil {
			return
		}
		if rt.cfg.SlowMs > 0 && dur >= time.Duration(rt.cfg.SlowMs)*time.Millisecond {
			rt.logger.Warn("slow request",
				"id", rid, "method", r.Method, "path", r.URL.Path,
				"status", status, "backend", sw.Header().Get("X-Backend"),
				"ms", float64(dur)/1e6, "slow_ms", rt.cfg.SlowMs)
			return
		}
		if rt.logger.Enabled(r.Context(), slog.LevelDebug) {
			rt.logger.Debug("request",
				"id", rid, "method", r.Method, "path", r.URL.Path,
				"status", status, "backend", sw.Header().Get("X-Backend"),
				"ms", float64(dur)/1e6)
		}
	})
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

// routeProbe is the shallow body decode used only to extract the
// routing key. Full validation stays on the backends — an undecodable
// body is still forwarded so the backend's 400 is the single source
// of truth for what a bad request looks like.
type routeProbe struct {
	Patient   int    `json:"patient"`
	PatientID string `json:"patient_id"`
	Patients  []int  `json:"patients"`
	Drugs     []int  `json:"drugs"`
}

// patientKey is the routing key for a dataset-index patient. It is
// shared by suggest/scores/explain/alerts so one patient's reads all
// land on (and warm) one backend's caches.
func patientKey(index int) string { return "i|" + strconv.Itoa(index) }

// registeredKey is the routing key for a registered patient id. It is
// the one key that carries state: the profile lives only on the
// owning backend.
func registeredKey(id string) string { return "p|" + id }

func drugsKey(drugs []int) string {
	sorted := append([]int(nil), drugs...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, d := range sorted {
		parts[i] = strconv.Itoa(d)
	}
	return "d|" + strings.Join(parts, ",")
}

// readBody buffers the request body so it can be replayed on retry.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("reading request body: %v", err)})
		return nil, false
	}
	return body, true
}

func (rt *Router) handleSuggest(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var probe routeProbe
	json.Unmarshal(body, &probe) // best-effort: key only
	key := patientKey(probe.Patient)
	pinned := false
	if probe.PatientID != "" {
		key = registeredKey(probe.PatientID)
		pinned = true // registry state is shard-local
	}
	rt.forward(w, r, body, key, true, pinned)
}

func (rt *Router) handleScores(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var probe routeProbe
	json.Unmarshal(body, &probe)
	key := patientKey(0)
	if len(probe.Patients) > 0 {
		key = patientKey(probe.Patients[0])
	}
	rt.forward(w, r, body, key, true, false)
}

// handlePatientOrDrugs routes /v1/explain and /v1/alerts, whose
// bodies name a patient or an explicit drug set.
func (rt *Router) handlePatientOrDrugs(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	// The patient field is a pointer server-side, so distinguish
	// "absent" from 0 here too.
	var probe struct {
		Patient *int  `json:"patient"`
		Drugs   []int `json:"drugs"`
	}
	json.Unmarshal(body, &probe)
	key := drugsKey(probe.Drugs)
	if probe.Patient != nil {
		key = patientKey(*probe.Patient)
	}
	rt.forward(w, r, body, key, true, false)
}

func (rt *Router) handlePatients(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body []byte
	if r.Method == http.MethodPut || r.Method == http.MethodPatch {
		var ok bool
		if body, ok = rt.readBody(w, r); !ok {
			return
		}
	}
	key := registeredKey(id)
	if r.Method == http.MethodGet {
		rt.forward(w, r, nil, key, true, true)
		return
	}
	// Full-replace PUT and DELETE are idempotent by construction —
	// replaying one after an ambiguous transport failure (connection
	// refused or reset before the response arrived) converges to the
	// same record — so they retry under the request budget instead of
	// surfacing a 502 for every restart race. PATCH merges and stays
	// single-shot.
	retryable := r.Method == http.MethodPut || r.Method == http.MethodDelete
	if rt.cfg.ReplicationFactor > 1 {
		rt.forwardReplicatedWrite(w, r, body, id, retryable)
		return
	}
	rt.forward(w, r, body, key, retryable, true)
}

// deadlineHeader is the propagated request budget (mirrors the
// backends' header): the router stamps each attempt's remaining
// milliseconds so backends abandon work the moment the router has
// moved on, and honors a client-sent value as an upper bound.
const deadlineHeader = "X-Deadline-Ms"

// forward proxies one request to the backend owning key. Pinned
// requests (registry state lives on the key's replica group) stay
// within the group: idempotent pinned reads fail over owner ->
// successors inside the group, un-replicated writes retry the owner
// with backoff. Un-pinned requests walk the owner's ring successors,
// so an ejected backend's keys are served by its deterministic
// neighbor until it recovers. The whole dance — attempts plus backoff
// sleeps — is bounded by the request budget.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, key string, idempotent, pinned bool) {
	candidates := rt.ring.Successors(key, rt.ring.Len())
	deadline, ok := rt.begin(w, r, candidates)
	if !ok {
		return
	}
	if pinned && rt.cfg.ReplicationFactor < len(candidates) {
		candidates = candidates[:rt.cfg.ReplicationFactor]
	}
	if pinned && idempotent && len(candidates) > 1 {
		// A replicated registered-patient read: every group member holds
		// the record, so the read fails over within the group instead of
		// dead-ending on the owner.
		rt.forwardPinnedRead(w, r, body, key, candidates, deadline)
		return
	}
	attempts := 1
	if idempotent {
		attempts += rt.cfg.MaxRetries
	}
	cr, err := rt.walk(r, body, candidates, attempts, pinned, deadline, nil)
	if cr == nil {
		rt.replyFailure(w, pinned, candidates, deadline, err)
		return
	}
	relayCaptured(w, cr)
}

// begin is the prologue every forwarded request shares: it counts the
// request and its key's owner (candidates[0]) and settles the request
// budget — the router's own, shrunk (never grown) by a client-sent
// X-Deadline-Ms. ok is false when begin has already answered: there
// are no backends (503), or the budget was spent before the request
// arrived (504).
func (rt *Router) begin(w http.ResponseWriter, r *http.Request, candidates []string) (deadline time.Time, ok bool) {
	rt.requests.Add(1)
	if len(candidates) == 0 {
		rt.proxyErrors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "router: no backends"})
		return time.Time{}, false
	}
	rt.backends[candidates[0]].routedKeys.Add(1)
	deadline = time.Now().Add(rt.cfg.RequestBudget)
	if h := r.Header.Get(deadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
			if ms <= 0 {
				rt.proxyErrors.Add(1)
				rt.deadlineExhausted.Add(1)
				writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "router: request deadline already expired"})
				return time.Time{}, false
			}
			if d := time.Now().Add(time.Duration(ms) * time.Millisecond); d.Before(deadline) {
				deadline = d
			}
		}
	}
	return deadline, true
}

// walk sends up to attempts tries through candidates, stopping at the
// first HTTP response. Each try goes to the next in-rotation candidate
// after the one that failed; retries sleep a doubling backoff first,
// and nothing outlives the request budget. When every candidate is
// ejected (e.g. the whole pool just restarted) a pinned walk tries its
// group anyway — passive success flips a member back to healthy faster
// than a probe — while an un-pinned walk stops after its first try.
// On failure it returns the error that ended the walk: the last
// unreachable backend, an over-limit response (never retried), or nil
// when the budget allowed no try at all.
func (rt *Router) walk(r *http.Request, body []byte, candidates []string, attempts int, pinned bool, deadline time.Time, extra http.Header) (*capturedResponse, error) {
	tr := obs.FromContext(r.Context())
	backoff := rt.cfg.RetryBackoff
	var lastErr error
	cursor := 0
	for attempt := 0; attempt < attempts; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		var b *backend
		for n := 0; n < len(candidates); n++ {
			cand := rt.backends[candidates[(cursor+n)%len(candidates)]]
			if cand.health.Healthy() {
				b = cand
				cursor = (cursor + n) % len(candidates)
				break
			}
		}
		if b == nil {
			if !pinned && attempt > 0 {
				break // every successor tried or ejected
			}
			b = rt.backends[candidates[cursor%len(candidates)]]
		}

		if attempt > 0 {
			if backoff >= remaining {
				break // the budget would be spent sleeping
			}
			tr.Eventf("retry %d: backoff %s then backend %s", attempt, backoff, b.name)
			time.Sleep(backoff)
			backoff *= 2
			b.retries.Add(1)
			rt.retriesTotal.Add(1)
			if remaining = time.Until(deadline); remaining <= 0 {
				break
			}
		}
		cr, err := rt.proxyCapture(r, b, body, remaining, extra)
		if err == nil {
			return cr, nil
		}
		if errors.Is(err, errTooLarge) {
			return nil, err
		}
		lastErr = fmt.Errorf("backend %s unreachable", b.name)
		cursor++ // next attempt starts at the following successor
	}
	return nil, lastErr
}

// replyFailure answers a request that no backend served and counts it
// as a proxy error. A pinned request whose whole group is out of
// rotation gets a 503 with Retry-After; a spent budget gets a 504;
// everything else — an over-limit response included, which neither
// health nor the budget explains — is a 502 naming lastErr.
func (rt *Router) replyFailure(w http.ResponseWriter, pinned bool, group []string, deadline time.Time, lastErr error) {
	rt.proxyErrors.Add(1)
	switch {
	case errors.Is(lastErr, errTooLarge):
		// A 502 below, whatever the group's health or the budget.
	case pinned && !rt.anyHealthy(group):
		// No group member that can answer is in rotation. Tell the
		// client when a retry could plausibly succeed: the remainder of
		// the owner's ejection cooldown.
		owner := rt.backends[group[0]]
		rt.pinnedUnavailable.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(owner.health.RetryAfter(time.Now())))
		writeJSON(w, http.StatusServiceUnavailable, apiError{
			Error: fmt.Sprintf("router: backend %s owning this patient is out of rotation", owner.name),
		})
		return
	case time.Until(deadline) <= 0:
		rt.deadlineExhausted.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "router: request budget exhausted"})
		return
	}
	msg := "router: request failed"
	if lastErr != nil {
		msg = "router: " + lastErr.Error()
	}
	writeJSON(w, http.StatusBadGateway, apiError{Error: msg})
}

// anyHealthy reports whether any named backend is in rotation.
func (rt *Router) anyHealthy(names []string) bool {
	for _, n := range names {
		if rt.backends[n].health.Healthy() {
			return true
		}
	}
	return false
}

// retryAfterSeconds renders a duration as a Retry-After value: whole
// seconds, rounded up, never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// errTooLarge marks a backend response longer than MaxBodyBytes.
// Replaying the request would get the same reply, so the attempt is
// neither retried nor counted against the backend's health.
var errTooLarge = errors.New("response too large")

// capturedResponse is one fully-buffered backend response.
type capturedResponse struct {
	backend string // the backend that answered
	status  int
	header  http.Header
	body    []byte
}

// proxyCapture sends one attempt to one backend and buffers the whole
// response; every proxied request goes through it. remaining is the
// request budget left: it caps the attempt timeout and is stamped onto
// the backend as X-Deadline-Ms so the backend stops working the moment
// this attempt's clock runs out. extra headers (e.g. X-Replicate) are
// stamped onto the backend request too.
//
// Nothing reaches the client before the whole body is in. Once the
// status line is written the attempt cannot be retried, and a chunked
// body that dies mid-stream on the backend link would be re-terminated
// cleanly by our own server — the client would read a truncated 2xx as
// if it were complete. A transport failure, a mid-body one included,
// feeds the health machine and returns an error the caller may retry.
// A body longer than MaxBodyBytes returns errTooLarge. Any HTTP
// response — including 4xx/5xx — is a successful proxy.
func (rt *Router) proxyCapture(r *http.Request, b *backend, body []byte, remaining time.Duration, extra http.Header) (*capturedResponse, error) {
	tr := obs.FromContext(r.Context())
	b.requests.Add(1)
	url := b.base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	attemptTimeout := rt.cfg.Timeout
	if remaining < attemptTimeout {
		attemptTimeout = remaining
	}
	ctx, cancel := context.WithTimeout(r.Context(), attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, url, reader)
	if err != nil {
		b.errors.Add(1)
		return nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	for k, vs := range extra {
		req.Header[k] = vs
	}
	req.Header.Set(deadlineHeader, strconv.FormatInt(attemptTimeout.Milliseconds(), 10))
	t0 := time.Now()
	resp, err := b.client.Do(req)
	lat := time.Since(t0)
	if tr != nil {
		tr.SpanAt("proxy:"+b.name, t0, t0.Add(lat))
	}
	if err != nil {
		b.errors.Add(1)
		tr.Eventf("backend %s failed: %v", b.name, err)
		rt.noteFailure(b, "proxy", err)
		return nil, err
	}
	defer resp.Body.Close()
	limit := rt.cfg.MaxBodyBytes
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if int64(len(raw)) > limit {
		tr.Eventf("backend %s response exceeds %d bytes", b.name, limit)
		return nil, fmt.Errorf("%w: backend %s sent more than MaxBodyBytes (%d bytes)", errTooLarge, b.name, limit)
	}
	if err == nil && resp.ContentLength >= 0 && int64(len(raw)) != resp.ContentLength {
		err = fmt.Errorf("short body: %d of %d bytes", len(raw), resp.ContentLength)
	}
	if err != nil {
		b.errors.Add(1)
		tr.Eventf("backend %s body died mid-read: %v", b.name, err)
		rt.noteFailure(b, "proxy", err)
		return nil, err
	}
	b.lat.Observe(lat)
	rt.noteSuccess(b)
	tr.SetBackend(b.name)
	return &capturedResponse{backend: b.name, status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// relayCaptured writes a buffered backend response to the client.
func relayCaptured(w http.ResponseWriter, cr *capturedResponse) {
	h := w.Header()
	for k, vs := range cr.header {
		if isHopByHop(k) {
			continue
		}
		h[k] = vs
	}
	h.Set("X-Backend", cr.backend)
	w.WriteHeader(cr.status)
	w.Write(cr.body)
}

// copyProxyHeaders forwards the request headers the backends care
// about: content negotiation, the Cache-Control bypass hook, and the
// request identity (observe settled X-Request-Id before routing, so
// the backend's trace carries the same id as the router's).
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Cache-Control", "Accept-Encoding", obs.RequestIDHeader} {
		if v := src.Values(k); len(v) > 0 {
			dst[k] = v
		}
	}
}

func isHopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}
