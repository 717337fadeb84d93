package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dssddi"
	"dssddi/internal/mat"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point: the client's HTTP call, the
// router's Handler() or a backend's Handler().
type span struct {
	layer string // client, router, serve
	class string // suggest, suggest-id, write, apply, read, other
	rid   string // X-Request-Id shared by the spans of one request
	key   string // registry id a write or replica apply touches
	hit   bool   // the backend answered from its result cache
	start time.Duration
	end   time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(sp span, start, end time.Time) {
	sp.start, sp.end = start.Sub(r.base), end.Sub(r.base)
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// classify names a server-side request. Replica applies carry no
// request id, so the applied record's id links them to the routed
// write that caused them.
func classify(r *http.Request) (class, key string) {
	p := r.URL.Path
	switch {
	case p == "/v1/suggest":
		return "suggest", ""
	case strings.HasPrefix(p, "/v1/patients/"):
		if r.Method == http.MethodPut {
			return "write", strings.TrimPrefix(p, "/v1/patients/")
		}
		return "read", ""
	case p == "/v1/admin/registry/apply":
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Records []struct {
				ID string `json:"id"`
			} `json:"records"`
		}
		if err == nil && json.Unmarshal(body, &req) == nil && len(req.Records) > 0 {
			key = req.Records[0].ID
		}
		return "apply", key
	}
	return "other", ""
}

// interval is a half-open stretch of time.
type interval struct{ start, end time.Duration }

// selfTime is the part of parent that none of the children covers.
// Children are clipped to the parent and may overlap one another.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return int(a.start - b.start) })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// mdCosts are the replayed engine costs a backend span's self time
// excludes, per call.
type mdCosts struct {
	score, rank, scoreFor, embed time.Duration
}

// mdTime is the engine work one backend request did. clientClass is
// the class of the client op that caused it ("" for replica applies).
func (m mdCosts) mdTime(s span, clientClass string) time.Duration {
	switch s.class {
	case "suggest":
		switch {
		case s.hit:
			return 0
		case clientClass == "suggest-id":
			return m.scoreFor
		default:
			return m.score + m.rank
		}
	case "write", "apply":
		return m.embed
	}
	return 0
}

// layerSelf splits op latency into the self time of each layer.
type layerSelf struct {
	n                              int
	total, http, router, serve, md time.Duration
}

func (l layerSelf) meanUs(d time.Duration) float64 { return meanUs(d, l.n) }

// meanUs is d / n in microseconds, 0 when n is 0.
func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// traceStats are the per-layer figures derived from one traced phase.
type traceStats struct {
	serveHandleUs, serveSelfUs float64
	httpSelfUs, routerSelfUs   float64
	backendCallsPerReq         float64
	byClass                    map[string]*layerSelf
}

// deriveLayers links spans into requests and computes self times:
// http = client span - outermost server span; router = router span -
// the backend spans it caused; serve = backend span - the replayed md
// time of that request.
func deriveLayers(spans []span, md mdCosts) traceStats {
	type req struct {
		client, router *span
		serves         []*span
	}
	byRid := make(map[string]*req)
	get := func(rid string) *req {
		r := byRid[rid]
		if r == nil {
			r = &req{}
			byRid[rid] = r
		}
		return r
	}
	var applies []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.layer == "client":
			get(s.rid).client = s
		case s.layer == "router":
			get(s.rid).router = s
		case s.class == "apply":
			applies = append(applies, s)
		case s.rid != "":
			get(s.rid).serves = append(get(s.rid).serves, s)
		}
	}
	// Replica applies are children of the routed write of the same id
	// that was in flight when they started.
	writes := make(map[string][]*req)
	for _, r := range byRid {
		if r.router != nil && r.router.class == "write" {
			writes[r.router.key] = append(writes[r.router.key], r)
		}
	}
	var orphans []*span
	for _, a := range applies {
		linked := false
		for _, r := range writes[a.key] {
			if a.start >= r.router.start && a.start <= r.router.end {
				r.serves = append(r.serves, a)
				linked = true
				break
			}
		}
		if !linked {
			orphans = append(orphans, a)
		}
	}

	st := traceStats{byClass: make(map[string]*layerSelf)}
	var nServe, nRouter, nHTTP, calls int
	var handle, serveSelf, routerSelf, httpSelf time.Duration
	for _, r := range byRid {
		cc := ""
		if r.client != nil {
			cc = r.client.class
		}
		var ls layerSelf
		for _, s := range r.serves {
			m := md.mdTime(*s, cc)
			nServe++
			handle += s.dur()
			serveSelf += s.dur() - m
			ls.serve += s.dur() - m
			ls.md += m
		}
		if r.router != nil {
			var kids []interval
			for _, s := range r.serves {
				kids = append(kids, interval{s.start, s.end})
			}
			self := selfTime(interval{r.router.start, r.router.end}, kids)
			nRouter++
			calls += len(r.serves)
			routerSelf += self
			ls.router = self
		}
		outer := r.router
		if outer == nil && len(r.serves) > 0 {
			outer = r.serves[0]
		}
		if r.client == nil || outer == nil {
			continue
		}
		h := r.client.dur() - outer.dur()
		nHTTP++
		httpSelf += h
		ls.http = h
		ls.total = r.client.dur()
		agg := st.byClass[cc]
		if agg == nil {
			agg = &layerSelf{}
			st.byClass[cc] = agg
		}
		agg.n++
		agg.total += ls.total
		agg.http += ls.http
		agg.router += ls.router
		agg.serve += ls.serve
		agg.md += ls.md
	}
	// Applies no routed write explains (background repairs) still
	// count as backend work.
	for _, a := range orphans {
		nServe++
		handle += a.dur()
		serveSelf += a.dur() - md.embed
	}
	st.serveHandleUs = meanUs(handle, nServe)
	st.serveSelfUs = meanUs(serveSelf, nServe)
	st.routerSelfUs = meanUs(routerSelf, nRouter)
	st.httpSelfUs = meanUs(httpSelf, nHTTP)
	if nRouter > 0 {
		st.backendCallsPerReq = float64(calls) / float64(nRouter)
	}
	return st
}

// replayResult holds the engine and kernel costs per call.
type replayResult struct {
	md                 mdCosts
	rowF64Ns, rowF32Ns float64
	bytesPerScore      float64
}

// replayLayers times the engine calls the traced phase made, on a
// private copy of the served snapshot while the fleet is idle, and the
// row kernels on the model's decoder shape.
func replayLayers(wl workload, snapshot []byte, hidden int, patients []int, regimens [][]int) (replayResult, error) {
	var rr replayResult
	sys, err := dssddi.Load(bytes.NewReader(snapshot))
	if err != nil {
		return rr, err
	}
	if err := sys.SetPrecision(wl.precision); err != nil {
		return rr, err
	}
	drugs := sys.Data().NumDrugs()
	row := make([]float64, drugs)
	rows := [][]float64{row}
	// One untimed pass per call builds the lazily cached inputs and
	// scratch buffers the serving backends built during warm-up.
	if len(patients) > 0 {
		if err := sys.ScoresInto(rows, patients[:1]); err != nil {
			return rr, err
		}
	}
	if len(regimens) > 0 {
		if _, err := sys.ScoresFor(dssddi.PatientProfile{Regimen: regimens[0]}); err != nil {
			return rr, err
		}
	}
	var score, rank time.Duration
	for _, p := range patients {
		t := time.Now()
		if err := sys.ScoresInto(rows, []int{p}); err != nil {
			return rr, err
		}
		score += time.Since(t)
		t = time.Now()
		if _, err := sys.SuggestFromScores(row, suggestK); err != nil {
			return rr, err
		}
		rank += time.Since(t)
	}
	if n := len(patients); n > 0 {
		rr.md.score = score / time.Duration(n)
		rr.md.rank = rank / time.Duration(n)
	}
	var embed, scoreFor time.Duration
	for _, reg := range regimens {
		t := time.Now()
		e, err := sys.EmbedPatient(dssddi.PatientProfile{Regimen: reg})
		if err != nil {
			return rr, err
		}
		embed += time.Since(t)
		t = time.Now()
		if err := sys.ScoresForEmbeddingInto(row, e); err != nil {
			return rr, err
		}
		scoreFor += time.Since(t)
	}
	if n := len(regimens); n > 0 {
		rr.md.embed = embed / time.Duration(n)
		rr.md.scoreFor = scoreFor / time.Duration(n)
	}
	rr.rowF64Ns, rr.rowF32Ns = replayRowKernels(hidden)
	// The fused decoder reads its layer-1 weights ((h+1) x h), layer-1
	// bias, layer-2 weights and bias once per (patient, drug) score.
	elem := 8.0
	if wl.precision == "f32" {
		elem = 4
	}
	h := float64(hidden)
	rr.bytesPerScore = elem * ((h+1)*h + h + h + 1)
	return rr, nil
}

// replayRowKernels times the two row kernels of the pair decoder on
// the model's decoder shape: an (h+1)-long input row against an
// (h+1) x h weight matrix.
func replayRowKernels(h int) (f64Ns, f32Ns float64) {
	rng := rand.New(rand.NewSource(1))
	w := mat.RandNormal(rng, h+1, h, 0.1)
	w32 := mat.Dense32From(w)
	x := mat.RandNormal(rng, 1, h+1, 1).Row(0)
	dst := make([]float64, h)
	x32, y32 := mat.Floats32(x[:h]), mat.Floats32(mat.RandNormal(rng, 1, h, 1).Row(0))
	dst32 := make([]float32, h)
	const calls = 2000
	t := time.Now()
	for range calls {
		mat.MulRowInto(dst, x, w)
	}
	f64Ns = float64(time.Since(t).Nanoseconds()) / calls
	t = time.Now()
	for range calls {
		mat.MulRowHadamardInto32(dst32, x32, y32, 0.5, w32)
	}
	f32Ns = float64(time.Since(t).Nanoseconds()) / calls
	return f64Ns, f32Ns
}
