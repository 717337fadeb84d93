package serve

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

// TestServePromSchemaGolden pins every family the server exports —
// name, type, help and label keys — on a WAL-backed server after one
// registry write, so no refactor can drop, rename or relabel one.
func TestServePromSchemaGolden(t *testing.T) {
	_, ts := newTestServer(t, durableConfig(t.TempDir()))
	if resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/golden", PatientPutRequest{Regimen: []int{0, 1}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/metricsz?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metricsz status %d", resp.StatusCode)
	}
	checkGolden(t, "prom_schema.golden", promSchema(t, body))
}

// TestWALSyncPolicyReported: /metricsz reports the policy the open log
// runs, so an unset WALSync shows the WAL's own default.
func TestWALSyncPolicyReported(t *testing.T) {
	for cfg, want := range map[string]string{"": "interval", "interval": "interval", "always": "always", "off": "off"} {
		_, ts := newTestServer(t, Config{WALPath: filepath.Join(t.TempDir(), "registry.wal"), WALSync: cfg})
		var m Metrics
		_, body := get(t, ts.URL+"/metricsz")
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.WAL == nil || m.WAL.SyncPolicy != want {
			t.Errorf("WALSync %q: metricsz reports %+v, want sync_policy %q", cfg, m.WAL, want)
		}
	}
}
