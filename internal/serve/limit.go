package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// limiter is per-endpoint admission control: at most maxInflight
// requests execute concurrently, at most maxQueue more wait for a
// slot, and everything beyond that is shed immediately with a 503 —
// under overload the server degrades into fast, explicit rejections
// instead of an unbounded queue whose tail latency (and memory)
// grows without limit. Admitted requests keep a bounded p99: the
// queue in front of them is never deeper than maxQueue.
type limiter struct {
	inflight chan struct{} // buffered to maxInflight; a token is one executing request
	queue    chan struct{} // buffered to maxQueue; a token is one waiting request
	sheds    atomic.Int64
}

// newLimiter returns nil (no limiting) when maxInflight <= 0.
func newLimiter(maxInflight, maxQueue int) *limiter {
	if maxInflight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &limiter{
		inflight: make(chan struct{}, maxInflight),
		queue:    make(chan struct{}, maxQueue),
	}
}

// acquire admits, queues or sheds one request. It returns (release,
// 0) on admission — the caller must invoke release exactly once — or
// (nil, status) where status is 503 (shed: inflight and queue both
// full) or 504 (the request's deadline expired while queued). Safe on
// a nil limiter: always admits.
func (l *limiter) acquire(ctx context.Context) (release func(), status int) {
	if l == nil {
		return func() {}, 0
	}
	select {
	case l.inflight <- struct{}{}:
		return l.release, 0
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		l.sheds.Add(1)
		return nil, http.StatusServiceUnavailable
	}
	defer func() { <-l.queue }()
	select {
	case l.inflight <- struct{}{}:
		return l.release, 0
	case <-ctx.Done():
		return nil, http.StatusGatewayTimeout
	}
}

func (l *limiter) release() { <-l.inflight }

func (l *limiter) shedCount() int64 {
	if l == nil {
		return 0
	}
	return l.sheds.Load()
}

// writeShed answers a shed request: an immediate 503 with a
// Retry-After hint, so well-behaved clients (and the router's retry
// loop) back off instead of hammering an overloaded backend.
func writeShed(w http.ResponseWriter) int {
	w.Header().Set("Retry-After", "1")
	return writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server overloaded; retry later"})
}

// deadlineHeader is the propagated request budget: the router stamps
// the milliseconds it is still willing to wait, and the backend
// derives a context from it so an admission-queue wait is abandoned,
// and scoring never started, once the upstream has already given up.
const deadlineHeader = "X-Deadline-Ms"

// requestContext derives the request's context from the propagated
// deadline header. expired=true means the budget was already spent
// when the request arrived (or a non-positive value was sent) — the
// only useful answer is an immediate 504. A missing or malformed
// header leaves the context untouched.
func requestContext(r *http.Request) (ctx context.Context, cancel context.CancelFunc, expired bool) {
	h := r.Header.Get(deadlineHeader)
	if h == "" {
		return r.Context(), nil, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return r.Context(), nil, false
	}
	if ms <= 0 {
		return nil, nil, true
	}
	ctx, cancel = context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, false
}

// writeDeadlineExceeded answers a request whose propagated budget ran
// out before the work completed.
func (s *Server) writeDeadlineExceeded(w http.ResponseWriter) int {
	s.deadlineTimeouts.Add(1)
	return writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "deadline exceeded before the request completed"})
}

// isDeadlineErr reports whether err is a context expiry (deadline or
// cancellation) rather than a scoring failure.
func isDeadlineErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
