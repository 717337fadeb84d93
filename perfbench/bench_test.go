package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dssddi"
)

// testModel trains in well under a second; the workload tests check
// the machinery, not the model.
var testModel = modelConfig{Patients: 120, TrainSeed: 1, Hidden: 16, DDIEpochs: 2, MDEpochs: 2, Backbone: "SGCN"}

const goodBody = `{"patient":1,"k":2,"regimen":[4],"suggestions":[{"drug_id":3,"drug_name":"a","score":0.75},{"drug_id":9,"drug_name":"b","score":0.5}]}` + "\n"

var goodWant = []dssddi.Suggestion{{DrugID: 3, Score: 0.75}, {DrugID: 9, Score: 0.5}}

func TestCheckSuggestBodyFlagsCorruption(t *testing.T) {
	if err := checkSuggestBody([]byte(goodBody), goodWant); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}
	corrupt := map[string]string{
		"score":     strings.Replace(goodBody, "0.75", "0.7500000000000001", 1),
		"drug":      strings.Replace(goodBody, `"drug_id":9`, `"drug_id":8`, 1),
		"order":     `{"suggestions":[{"drug_id":9,"score":0.5},{"drug_id":3,"score":0.75}]}`,
		"short":     strings.Replace(goodBody, `,{"drug_id":9,"drug_name":"b","score":0.5}`, "", 1),
		"truncated": goodBody[:len(goodBody)/2],
	}
	for name, body := range corrupt {
		if err := checkSuggestBody([]byte(body), goodWant); err == nil {
			t.Errorf("%s: corrupted body accepted: %s", name, body)
		}
	}
}

// TestClientCountsCorruptedResponseWrong serves a correct answer and
// then a corrupted one for the same patient: the second must count as
// wrong even though the client has already verified a body for that
// patient.
func TestClientCountsCorruptedResponseWrong(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Epoch", "1")
		body := goodBody
		if calls.Add(1) > 1 {
			body = strings.Replace(goodBody, "0.5", "0.25", 1)
		}
		w.Write([]byte(body))
	}))
	defer ts.Close()
	c := &client{
		hc:       ts.Client(),
		base:     ts.URL,
		rng:      rand.New(rand.NewSource(1)),
		bodies:   [][]byte{[]byte(`{"patient":0,"k":2}`)},
		verified: make(map[int][]byte),
		or:       &oracle{epoch: "1", byPatient: [][]dssddi.Suggestion{goodWant}},
	}
	c.begin(newPhase(time.Second), nil)
	c.suggestPatient()
	c.suggestPatient()
	tl := c.tally[clsSuggest]
	if tl.attempted != 2 || tl.wrong != 1 || tl.failed != 0 {
		t.Fatalf("attempted %d wrong %d failed %d, want 2/1/0", tl.attempted, tl.wrong, tl.failed)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		kids []interval
		want time.Duration
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		// Overlapping children count once; children are clipped to the
		// parent; a child outside it covers nothing.
		{[]interval{{20, 40}, {10, 30}, {90, 120}, {200, 300}}, 60},
		{[]interval{{-5, 50}, {50, 105}}, 0},
	}
	for i, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("case %d: self %v, want %v", i, got, c.want)
		}
	}
}

// TestDeriveLayers checks the self times on a synthetic span tree: a
// routed write whose owner call carries the request id and whose
// replica apply is linked by the patient id, and a cached suggest.
func TestDeriveLayers(t *testing.T) {
	spans := []span{
		{layer: "client", class: "write", rid: "w", key: "p1", start: 0, end: 1000},
		{layer: "router", class: "write", rid: "w", key: "p1", start: 100, end: 900},
		{layer: "serve", class: "write", rid: "w", key: "p1", start: 200, end: 400},
		{layer: "serve", class: "apply", key: "p1", start: 450, end: 700},
		{layer: "client", class: "suggest", rid: "s", start: 2000, end: 2300},
		{layer: "router", class: "suggest", rid: "s", start: 2050, end: 2250},
		{layer: "serve", class: "suggest", rid: "s", hit: true, start: 2100, end: 2150},
	}
	st := deriveLayers(spans, mdCosts{embed: 50, score: 1000})
	us := func(ns float64) float64 { return ns / 1e3 }
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// router: write 800-(200+250)=350, suggest 200-50=150.
	check("router.self_us", st.routerSelfUs, us((350+150)/2.0))
	check("router.backend_calls_per_req", st.backendCallsPerReq, 1.5)
	// serve: write 200-50, apply 250-50, cached suggest 50-0.
	check("serve.handle_us", st.serveHandleUs, us((200+250+50)/3.0))
	check("serve.self_us", st.serveSelfUs, us((150+200+50)/3.0))
	// http: client minus router span.
	check("http.self_us", st.httpSelfUs, us((200+100)/2.0))
	w := st.byClass["write"]
	if w == nil || w.n != 1 || w.total != 1000 || w.http+w.router+w.serve+w.md != w.total {
		t.Errorf("write breakdown %+v does not add up to the client span", w)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(wls, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", wls, ours)
	}
	return endToEnd, perLayer
}

// TestWorkloadsEndToEnd runs every workload, untraced and traced, at a
// very short length on a tiny model: every answer must check out, and
// the result must carry exactly the metrics BENCHMARK.json declares.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet per workload")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: wl.name, seed: 7, seconds: 0.6, trace: trace, reps: 1, clients: 2, model: testModel, workDir: t.TempDir()}
			var out bytes.Buffer
			res, err := runBenchmark(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, trace, err, out.String())
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct %v, %d of %d failed\n%s", wl.name, trace, res.correct, res.failed, res.attempted, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for _, m := range res.metrics {
				got = append(got, m.name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", wl.name, trace, got, want)
			}
		}
	}
}

// TestVerifyRunCountsLostRegistration deletes one acknowledged
// registration behind the clients' backs: the end-of-run read-back
// must report it lost.
func TestVerifyRunCountsLostRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	wl, err := lookupWorkload("cold-suggest")
	if err != nil {
		t.Fatal(err)
	}
	var cs []*client
	var in *inputs
	f, _, err := buildFleet(wl, testModel, t.TempDir(), func(f *fleet) error {
		in = genInputs(3, f.data.NumDrugs())
		cs = newClients(f, in, 3, 2)
		return warm(cs, f.data.NumPatients())
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeClients(cs)
		f.close()
	}()
	if lost, err := verifyRun(f, cs, in); err != nil || lost != 0 {
		t.Fatalf("before the delete: lost %d, err %v", lost, err)
	}
	req, err := http.NewRequest(http.MethodDelete, f.frontURL()+"/v1/patients/"+cs[1].pool[5], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lost, err := verifyRun(f, cs, in); err != nil || lost != 1 {
		t.Fatalf("after deleting one id: lost %d, err %v; want 1", lost, err)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
