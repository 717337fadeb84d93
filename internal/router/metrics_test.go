package router

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dssddi/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the Prometheus schema golden files")

// promSchema reduces an exposition to one line per metric family:
// name, TYPE, sorted label keys and HELP, tab-separated and sorted by
// name. It pins which families exist and how they are declared, not
// their values.
func promSchema(t *testing.T, body []byte) string {
	t.Helper()
	set, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition failed to parse: %v\n%s", err, body)
	}
	help := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
	}
	keys := map[string]map[string]bool{}
	for fam := range set.Types {
		keys[fam] = map[string]bool{}
	}
	for _, s := range set.Series {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.Name, suffix); base != s.Name && set.Types[base] == "histogram" {
				fam = base
			}
		}
		for k := range s.Labels {
			keys[fam][k] = true
		}
	}
	var lines []string
	for fam, typ := range set.Types {
		var ks []string
		for k := range keys[fam] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		lines = append(lines, fam+"\t"+typ+"\t"+strings.Join(ks, ",")+"\t"+help[fam])
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// checkGolden compares got against testdata/name, rewriting the file
// instead under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Prometheus schema differs from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestRouterPromSchemaGolden pins every family the router exports —
// name, type, help and label keys — on a fleet with replication
// factor 2, so no refactor can drop, rename or relabel one.
func TestRouterPromSchemaGolden(t *testing.T) {
	f := bootFleet(t, 2, "", replConfig())
	if resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/golden", map[string]any{"regimen": []int{0, 1}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/metricsz?format=prometheus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metricsz status %d", resp.StatusCode)
	}
	checkGolden(t, "prom_schema.golden", promSchema(t, body))
}

// TestRouterPromAgreesWithJSON: after suggests, a replicated registry
// PUT and a fleet rollout, every value the router's Prometheus view
// mirrors from its JSON /metricsz agrees with it. The JSON-to-family
// mapping is written out by hand here, independent of the struct tags
// that drive the renderer.
func TestRouterPromAgreesWithJSON(t *testing.T) {
	a, b := systems(t)
	dir := t.TempDir()
	pathA := saveSnapshot(t, a, dir, "a.snap")
	pathB := saveSnapshot(t, b, dir, "b.snap")
	f := bootFleet(t, 3, pathA, replConfig())
	for i := 0; i < 12; i++ {
		if resp, body := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": i, "k": 2}); resp.StatusCode != http.StatusOK {
			t.Fatalf("suggest %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/mirror", map[string]any{"regimen": []int{0, 1}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, f.rts.URL+"/v1/admin/reload", ReloadRequest{Path: pathB}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", resp.StatusCode, body)
	}
	postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient_id": "mirror", "k": 2})

	// One scrape of each format; /metricsz is not a routed request, so
	// the second scrape sees the same counters as the first.
	_, bodyJSON := doJSON(t, http.MethodGet, f.rts.URL+"/metricsz", nil)
	var doc map[string]any
	if err := json.Unmarshal(bodyJSON, &doc); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/metricsz?format=prometheus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metricsz status %d", resp.StatusCode)
	}
	set, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("router exposition failed to parse: %v\n%s", err, body)
	}
	if _, err := set.CheckHistograms(); err != nil {
		t.Fatalf("router exposition histograms inconsistent: %v", err)
	}

	check := func(family string, labels map[string]string, want float64, what string) {
		t.Helper()
		if got, ok := set.Value(family, labels); !ok || got != want {
			t.Errorf("%s%v = %v (present %v), JSON %s = %v", family, labels, got, ok, what, want)
		}
	}
	for key, family := range map[string]string{
		"requests":             "dssddi_router_requests_total",
		"proxy_errors":         "dssddi_router_proxy_errors_total",
		"retries":              "dssddi_router_retries_total",
		"pinned_unavailable":   "dssddi_router_pinned_unavailable_total",
		"deadline_exhausted":   "dssddi_router_deadline_exhausted_total",
		"rollouts":             "dssddi_router_rollouts_total",
		"rollout_failures":     "dssddi_router_rollout_failures_total",
		"replica_reads":        "dssddi_router_replica_reads_total",
		"read_repairs":         "dssddi_router_read_repairs_total",
		"replication_fanouts":  "dssddi_router_replication_fanouts_total",
		"quorum_failures":      "dssddi_router_quorum_failures_total",
		"anti_entropy_syncs":   "dssddi_router_anti_entropy_syncs_total",
		"anti_entropy_records": "dssddi_router_anti_entropy_records_total",
	} {
		want, ok := doc[key].(float64)
		if !ok {
			t.Fatalf("JSON has no number %q", key)
		}
		check(family, nil, want, key)
	}
	if doc["rollouts"] != 1.0 || doc["replication_fanouts"].(float64) < 1 {
		t.Errorf("traffic did not move the counters it should: %s", bodyJSON)
	}
	backends := doc["backends"].(map[string]any)
	if len(backends) != len(f.names) {
		t.Fatalf("JSON lists %d backends, fleet has %d", len(backends), len(f.names))
	}
	for name, v := range backends {
		bm := v.(map[string]any)
		num := func(key string) float64 { return bm[key].(float64) }
		l := map[string]string{"backend": name}
		check("dssddi_router_backend_epoch", l, num("epoch"), name+".epoch")
		check("dssddi_router_backend_requests_total", l, num("requests"), name+".requests")
		check("dssddi_router_backend_transport_errors_total", l, num("transport_errors"), name+".transport_errors")
		check("dssddi_router_backend_ejections_total", l, num("ejections"), name+".ejections")
		// Every proxy attempt that did not fail is one observation.
		check("dssddi_router_backend_duration_seconds_count", l, num("requests")-num("transport_errors"), name+".requests - transport_errors")
		up := 0.0
		if bm["state"] == "healthy" {
			up = 1
		}
		check("dssddi_router_backend_up", l, up, name+".state")
	}
}
