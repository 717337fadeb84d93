package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"dssddi"
	"dssddi/internal/router"
	"dssddi/internal/serve"
)

// modelConfig is the one model every workload serves, so that run
// records of different workloads and commits compare.
type modelConfig struct {
	Patients  int    `json:"patients"`
	TrainSeed int64  `json:"train_seed"`
	Hidden    int    `json:"hidden"`
	DDIEpochs int    `json:"ddi_epochs"`
	MDEpochs  int    `json:"md_epochs"`
	Backbone  string `json:"backbone"`
}

// benchModel is an 800-patient chronic cohort at serving width 384:
// wide enough that scoring dominates a cold request, small enough to
// train in a few seconds.
var benchModel = modelConfig{Patients: 800, TrainSeed: 1, Hidden: 384, DDIEpochs: 5, MDEpochs: 10, Backbone: "SGCN"}

// setupTimes splits one set-up into the calls that make it up. Each
// part is process CPU time; wall is the elapsed time of the whole.
type setupTimes struct {
	total, cohort, train, save, load, boot, warm time.Duration
	wall                                         time.Duration
}

// tap wraps a tier's handler. While a recorder is installed it records
// one span per request; otherwise it costs one atomic load.
type tap struct {
	layer string
	next  http.Handler
	rec   atomic.Pointer[recorder]
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	if rec == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	sp := span{layer: t.layer, rid: r.Header.Get("X-Request-Id")}
	sp.class, sp.key = classify(r)
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	sp.hit = w.Header().Get("X-Cache") == "HIT"
	rec.add(sp, start, end)
}

// node is one in-process daemon: a handler served on a loopback
// listener.
type node struct {
	addr string
	hs   *http.Server
	tap  *tap
	done chan struct{}
}

// basePort is where the fleet's listeners go. The router names
// backends by address, so fixed ports give every run the same hash
// ring and the same split of patients over backends; a port in use
// falls back to an ephemeral one.
const basePort = 23700

func startNode(layer string, port int, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	n := &node{addr: ln.Addr().String(), tap: &tap{layer: layer, next: h}, done: make(chan struct{})}
	n.hs = &http.Server{Handler: n.tap}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

func (n *node) stop() {
	n.hs.Close()
	<-n.done
}

// fleet is the system under test: backends, an optional router in
// front, and the snapshot they all serve.
type fleet struct {
	wl       workload
	servers  []*serve.Server
	backends []*node
	rt       *router.Router
	front    *node // router node, or the single backend
	snapshot []byte
	data     *dssddi.Data
	epoch    string
	walDir   string
}

func (f *fleet) frontURL() string { return "http://" + f.front.addr }

// setRecorder starts (rec != nil) or stops span recording on every
// tier.
func (f *fleet) setRecorder(rec *recorder) {
	if f.rt != nil {
		f.front.tap.rec.Store(rec)
	}
	for _, b := range f.backends {
		b.tap.rec.Store(rec)
	}
}

func (f *fleet) close() {
	if f.rt != nil {
		f.front.stop()
		f.rt.Close()
	}
	for i, b := range f.backends {
		b.stop()
		f.servers[i].Close()
	}
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
}

// buildFleet runs one complete set-up: cohort, training, snapshot
// round trip, boot and warm-up. workDir holds the WAL files of durable
// workloads.
func buildFleet(wl workload, mc modelConfig, workDir string, warm func(*fleet) error) (*fleet, setupTimes, error) {
	var st setupTimes
	w0, c0 := time.Now(), cpuTime()
	lap := c0
	split := func(d *time.Duration) {
		now := cpuTime()
		*d, lap = now-lap, now
	}
	males := mc.Patients / 2
	data := dssddi.GenerateChronic(mc.TrainSeed, mc.Patients-males, males)
	split(&st.cohort)

	sys := dssddi.New(dssddi.Config{Backbone: mc.Backbone, Hidden: mc.Hidden, DDIEpochs: mc.DDIEpochs, MDEpochs: mc.MDEpochs, Seed: mc.TrainSeed})
	if err := sys.Train(data); err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	split(&st.train)

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		return nil, st, fmt.Errorf("save snapshot: %w", err)
	}
	split(&st.save)

	f := &fleet{wl: wl, snapshot: buf.Bytes(), data: data}
	if wl.durable {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, st, err
		}
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, st, err
		}
		f.walDir = dir
	}
	systems := make([]*dssddi.System, wl.backends)
	for i := range systems {
		s, err := dssddi.Load(bytes.NewReader(f.snapshot))
		if err != nil {
			f.close()
			return nil, st, fmt.Errorf("load snapshot: %w", err)
		}
		systems[i] = s
	}
	split(&st.load)

	if err := f.boot(systems); err != nil {
		f.close()
		return nil, st, err
	}
	split(&st.boot)

	if err := f.readEpoch(); err != nil {
		f.close()
		return nil, st, err
	}
	if warm != nil {
		if err := warm(f); err != nil {
			f.close()
			return nil, st, fmt.Errorf("warm-up: %w", err)
		}
	}
	split(&st.warm)
	st.total, st.wall = lap-c0, time.Since(w0)
	return f, st, nil
}

func (f *fleet) boot(systems []*dssddi.System) error {
	var addrs []string
	for i, sys := range systems {
		cfg := serve.Config{Precision: f.wl.precision}
		if f.walDir != "" {
			cfg.WALPath = filepath.Join(f.walDir, "b"+strconv.Itoa(i)+".wal")
		}
		s, err := serve.New(sys, cfg)
		if err != nil {
			return fmt.Errorf("boot backend %d: %w", i, err)
		}
		n, err := startNode("serve", basePort+1+i, s.Handler())
		if err != nil {
			s.Close()
			return err
		}
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, n)
		addrs = append(addrs, n.addr)
	}
	if !f.wl.router {
		f.front = f.backends[0]
		return nil
	}
	rt, err := router.New(router.Config{Backends: addrs, ReplicationFactor: f.wl.replicas, WriteQuorum: f.wl.quorum})
	if err != nil {
		return fmt.Errorf("boot router: %w", err)
	}
	n, err := startNode("router", basePort, rt.Handler())
	if err != nil {
		rt.Close()
		return err
	}
	f.rt, f.front = rt, n
	return nil
}

// readEpoch records the epoch every backend serves; each response
// must carry it in X-Epoch.
func (f *fleet) readEpoch() error {
	for i, b := range f.backends {
		var h struct {
			Epoch int64 `json:"epoch"`
		}
		if err := getJSON("http://"+b.addr+"/healthz", &h); err != nil {
			return fmt.Errorf("backend %d healthz: %w", i, err)
		}
		e := strconv.FormatInt(h.Epoch, 10)
		if i > 0 && e != f.epoch {
			return fmt.Errorf("backends serve epochs %s and %s", f.epoch, e)
		}
		f.epoch = e
	}
	return nil
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
