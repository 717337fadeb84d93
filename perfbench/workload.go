package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix against one fleet shape.
type workload struct {
	name      string
	backends  int
	router    bool
	replicas  int
	quorum    int
	precision string
	durable   bool // WAL-backed registry on every backend
	cold      bool // suggests send Cache-Control: no-cache
	zipf      bool // suggest patients Zipf-skewed instead of uniform
	mixed     bool // clients loop PUT-then-suggest on registered ids
}

var workloads = []workload{
	// The md engine and mat kernels do nearly all the work; router,
	// cache, registry and WAL sit idle.
	{name: "cold-suggest", backends: 1, precision: "f64", cold: true},
	// Cache hits after warm-up: JSON, admission, cache, net/http and
	// the router hop dominate while the kernel does almost nothing.
	{name: "hot-suggest", backends: 2, router: true, replicas: 2, precision: "f64", zipf: true},
	// Registry writes (embed, WAL, quorum fan-out, replica applies)
	// interleaved with f32 inductive reads.
	{name: "registry-mix", backends: 2, router: true, replicas: 2, quorum: 2, precision: "f32", durable: true, mixed: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	suggestK = 4
	// poolSize is how many registry ids each client owns. Every id is
	// registered during warm-up, so the registry holds a fixed number
	// of patients whatever the throughput.
	poolSize = 64
	// numRegimens is the size of the seeded regimen table writes draw
	// from; the oracle precomputes one reference per regimen.
	numRegimens = 256
)

// inputs are the generated requests of one run: everything the
// workload seed drives.
type inputs struct {
	regimens [][]int
	putBody  [][]byte
}

func genInputs(seed int64, drugs int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for range numRegimens {
		n := 2 + rng.Intn(4)
		reg := rng.Perm(drugs)[:n]
		sort.Ints(reg)
		in.regimens = append(in.regimens, reg)
		b := []byte(`{"regimen":[`)
		for i, d := range reg {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		in.putBody = append(in.putBody, append(b, "]}"...))
	}
	return in
}

// Op classes.
const (
	clsSuggest = iota
	clsWrite
	numClasses
)

var classNames = [numClasses]string{"suggest", "write"}

// phase is one timed stretch of closed-loop load, cut into equal
// windows so that each metric is reported as a median over windows.
type phase struct {
	t0       time.Time
	deadline time.Time
	win      time.Duration
	windows  int
}

func newPhase(d time.Duration) *phase {
	windows := max(2, int(d/time.Second))
	t0 := time.Now()
	return &phase{t0: t0, deadline: t0.Add(d), win: d / time.Duration(windows), windows: windows}
}

func (ph *phase) window(end time.Time) int {
	return min(int(end.Sub(ph.t0)/ph.win), ph.windows-1)
}

// tally counts one op class over a phase: latencies of correct ops
// and the process CPU time charged to the class, per window, and the
// ops that failed or answered wrongly.
type tally struct {
	lat       [][]time.Duration
	cpu       []time.Duration
	attempted int
	failed    int
	wrong     int
}

func newTally(windows int) tally {
	return tally{lat: make([][]time.Duration, windows), cpu: make([]time.Duration, windows)}
}

func (t *tally) merge(o *tally) {
	for w := range t.lat {
		t.lat[w] = append(t.lat[w], o.lat[w]...)
		t.cpu[w] += o.cpu[w]
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// classResult is one op class's end-to-end figures over a phase.
type classResult struct {
	cpuUs             float64   // process CPU time per correct op
	cpuWindows        []float64 // cpuUs of each window
	rps, p50ms, p99ms float64   // wall-clock, as the clients saw it
	ops               int       // correct ops timed
	attempted, failed int
	wrong             int
}

// summarize computes each figure per window and reports the median
// over windows, which damps a window disturbed by other load on the
// machine.
func (t *tally) summarize(win time.Duration) classResult {
	r := classResult{attempted: t.attempted, failed: t.failed, wrong: t.wrong}
	var cpu, rps, p50, p99 []float64
	for w, lat := range t.lat {
		r.ops += len(lat)
		rps = append(rps, float64(len(lat))/win.Seconds())
		if len(lat) == 0 {
			continue
		}
		cpu = append(cpu, float64(t.cpu[w])/1e3/float64(len(lat)))
		s := slices.Clone(lat)
		slices.Sort(s)
		p50 = append(p50, ms(quantile(s, 0.50)))
		p99 = append(p99, ms(quantile(s, 0.99)))
	}
	r.cpuWindows = cpu
	r.cpuUs, r.rps, r.p50ms, r.p99ms = median(cpu), median(rps), median(p50), median(p99)
	return r
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the CPU time the process has used, all threads, user and
// system. Unlike wall time it does not grow while the hypervisor runs
// other guests on this machine's CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// client is one closed-loop caller: it sends its next request only
// after the previous one has been answered, over its own single
// connection.
type client struct {
	idx    int
	hc     *http.Client
	base   string
	wl     workload
	in     *inputs
	or     *oracle
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	bodies [][]byte // suggest request body per cohort patient

	pool     []string
	acked    map[string]int // id -> regimen of its last acknowledged write; -1 if unknown
	next     int
	verified map[int][]byte // patient -> a response body already checked against the oracle
	buf      bytes.Buffer
	seq      int
	last     struct {
		id    string
		reg   int
		acked bool
	}

	ph    *phase
	tally [numClasses]tally
	rec   *recorder
	seen  map[int]bool // cohort patients suggested while traced
	wrote map[int]bool // regimens written while traced
}

func newClients(f *fleet, in *inputs, seed int64, n int) []*client {
	bodies := make([][]byte, f.data.NumPatients())
	for p := range bodies {
		bodies[p] = []byte(`{"patient":` + strconv.Itoa(p) + `,"k":` + strconv.Itoa(suggestK) + `}`)
	}
	out := make([]*client, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		c := &client{
			idx:      i,
			hc:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second},
			base:     f.frontURL(),
			wl:       f.wl,
			in:       in,
			rng:      rng,
			bodies:   bodies,
			acked:    make(map[string]int),
			verified: make(map[int][]byte),
			seen:     make(map[int]bool),
			wrote:    make(map[int]bool),
		}
		if f.wl.zipf {
			c.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(bodies)-1))
			c.perm = rand.New(rand.NewSource(seed)).Perm(len(bodies))
		}
		for j := range poolSize {
			c.pool = append(c.pool, "c"+strconv.Itoa(i)+"-p"+strconv.Itoa(j))
		}
		out[i] = c
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

func (c *client) begin(ph *phase, rec *recorder) {
	c.ph, c.rec = ph, rec
	for i := range c.tally {
		c.tally[i] = newTally(ph.windows)
	}
}

// outcome classifies a finished op.
type outcome int

const (
	okOp outcome = iota
	failedOp
	wrongOp
)

func (c *client) record(class int, start, end time.Time, o outcome, rid, key string) {
	t := &c.tally[class]
	t.attempted++
	switch o {
	case failedOp:
		t.failed++
	case wrongOp:
		t.wrong++
	default:
		w := c.ph.window(end)
		t.lat[w] = append(t.lat[w], end.Sub(start))
	}
	if c.rec != nil {
		sp := span{layer: "client", class: classNames[class], rid: rid, key: key}
		if class == clsSuggest && c.wl.mixed {
			sp.class = "suggest-id"
		}
		c.rec.add(sp, start, end)
	}
}

// do sends one request and reads the whole response into c.buf.
func (c *client) do(method, path string, body []byte, cold bool) (status int, epoch, rid string, err error) {
	c.seq++
	rid = "pb" + strconv.Itoa(c.idx) + "-" + strconv.Itoa(c.seq)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", rid, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	if cold {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", rid, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Epoch"), rid, err
}

// step runs one op of the given class: a cohort suggest for the read
// workloads, a registry write, or (registry-mix) a suggest for the id
// the client's last write acknowledged.
func (c *client) step(class int) {
	switch {
	case class == clsWrite:
		c.last.id, c.last.reg, c.last.acked = c.write()
	case !c.wl.mixed:
		c.suggestPatient()
	case c.last.acked:
		c.suggestRegistered(c.last.id, c.last.reg)
	}
}

func (c *client) pickPatient() int {
	if c.zipf != nil {
		return c.perm[c.zipf.Uint64()]
	}
	return c.rng.Intn(len(c.bodies))
}

func (c *client) suggestPatient() {
	p := c.pickPatient()
	start := time.Now()
	status, epoch, rid, err := c.do(http.MethodPost, "/v1/suggest", c.bodies[p], c.wl.cold)
	end := time.Now()
	o := okOp
	switch {
	case err != nil || status != http.StatusOK:
		o = failedOp
	case epoch != c.or.epoch:
		o = wrongOp
	default:
		body := c.buf.Bytes()
		if v, ok := c.verified[p]; !ok || !bytes.Equal(v, body) {
			if checkSuggestBody(body, c.or.byPatient[p]) != nil {
				o = wrongOp
			} else {
				c.verified[p] = bytes.Clone(body)
			}
		}
	}
	if c.rec != nil {
		c.seen[p] = true
	}
	c.record(clsSuggest, start, end, o, rid, "")
}

// write registers the next id of the client's pool with a seeded
// regimen and reports whether the write was acknowledged.
func (c *client) write() (id string, reg int, acked bool) {
	id = c.pool[c.next%len(c.pool)]
	c.next++
	reg = c.rng.Intn(len(c.in.regimens))
	start := time.Now()
	status, _, rid, err := c.do(http.MethodPut, "/v1/patients/"+id, c.in.putBody[reg], false)
	end := time.Now()
	acked = err == nil && (status == http.StatusOK || status == http.StatusCreated)
	o := okOp
	if acked {
		c.acked[id] = reg
	} else {
		// The write may or may not have landed; the read-back cannot
		// judge this id any more.
		c.acked[id] = -1
		o = failedOp
	}
	if c.rec != nil {
		c.wrote[reg] = true
	}
	if c.ph != nil {
		c.record(clsWrite, start, end, o, rid, id)
	}
	return id, reg, acked
}

func idSuggestBody(id string) []byte {
	return []byte(`{"patient_id":"` + id + `","k":` + strconv.Itoa(suggestK) + `}`)
}

func (c *client) suggestRegistered(id string, reg int) {
	start := time.Now()
	status, epoch, rid, err := c.do(http.MethodPost, "/v1/suggest", idSuggestBody(id), false)
	end := time.Now()
	o := okOp
	switch {
	case err != nil || status != http.StatusOK:
		o = failedOp
	case epoch != c.or.epoch || checkSuggestBody(c.buf.Bytes(), c.or.byRegimen[reg]) != nil:
		o = wrongOp
	}
	c.record(clsSuggest, start, end, o, rid, id)
}

// runPhase drives the clients closed loop until the phase deadline,
// each running one op of class k after another, and charges the
// process CPU time of every window to k.
func runPhase(cs []*client, d time.Duration, k int, rec *recorder) classResult {
	ph := newPhase(d)
	for _, c := range cs {
		c.begin(ph, rec)
	}
	var wg sync.WaitGroup
	wg.Add(len(cs))
	for _, c := range cs {
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(ph.deadline) {
				c.step(k)
			}
		}(c)
	}
	cpu := make([]time.Duration, ph.windows)
	last := cpuTime()
	for w := range cpu {
		time.Sleep(time.Until(ph.t0.Add(time.Duration(w+1) * ph.win)))
		now := cpuTime()
		cpu[w], last = now-last, now
	}
	wg.Wait()
	return ph.result(cs, k, cpu)
}

// runLockstep drives the clients closed loop in lockstep until the
// phase deadline: each iteration runs one op per class in steps on
// every client at once, and charges the process CPU time of each step
// to its class, so that classes sharing a phase keep their costs
// apart.
func runLockstep(cs []*client, d time.Duration, steps []int, rec *recorder) [numClasses]classResult {
	ph := newPhase(d)
	for _, c := range cs {
		c.begin(ph, rec)
	}
	var cpu [numClasses][]time.Duration
	for k := range cpu {
		cpu[k] = make([]time.Duration, ph.windows)
	}
	var wg sync.WaitGroup
	for time.Now().Before(ph.deadline) {
		for _, k := range steps {
			c0 := cpuTime()
			wg.Add(len(cs))
			for _, c := range cs {
				go func(c *client) {
					defer wg.Done()
					c.step(k)
				}(c)
			}
			wg.Wait()
			cpu[k][ph.window(time.Now())] += cpuTime() - c0
		}
	}
	var res [numClasses]classResult
	for k := range res {
		res[k] = ph.result(cs, k, cpu[k])
	}
	return res
}

// result merges the clients' tallies of class k with the CPU time
// charged to it, and detaches the clients from the phase.
func (ph *phase) result(cs []*client, k int, cpu []time.Duration) classResult {
	t := newTally(ph.windows)
	copy(t.cpu, cpu)
	for _, c := range cs {
		t.merge(&c.tally[k])
		c.ph, c.rec = nil, nil
	}
	return t.summarize(ph.win)
}

// warm opens every client's connection, registers every pool id (which
// also builds the backends' lazy inductive inputs), and for
// hot-suggest fills the result caches with every cohort patient.
func warm(cs []*client, nPatients int) error {
	errs := make(chan error, len(cs))
	for _, c := range cs {
		go func(c *client) {
			errs <- c.warm(nPatients, len(cs))
		}(c)
	}
	var first error
	for range cs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *client) warm(nPatients, nClients int) error {
	for range c.pool {
		if _, _, ok := c.write(); !ok {
			return fmt.Errorf("client %d: warm-up registration failed", c.idx)
		}
	}
	var patients []int
	switch {
	case c.wl.zipf:
		for p := c.idx; p < nPatients; p += nClients {
			patients = append(patients, p)
		}
	case !c.wl.mixed:
		for i := range 8 {
			patients = append(patients, (c.idx*8+i)%nPatients)
		}
	}
	for _, p := range patients {
		status, _, _, err := c.do(http.MethodPost, "/v1/suggest", c.bodies[p], c.wl.cold)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("client %d: warm-up suggest for patient %d: status %d, %v", c.idx, p, status, err)
		}
	}
	if c.wl.mixed {
		for _, id := range c.pool {
			status, _, _, err := c.do(http.MethodPost, "/v1/suggest", idSuggestBody(id), false)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("client %d: warm-up suggest for %s: status %d, %v", c.idx, id, status, err)
			}
		}
	}
	return nil
}
