package core

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestSurfacePinned holds the frontend's outside surface still while its
// insides move: every /v1 name answers a PUT with 405 and the exact Allow
// its method discipline gives it, an unknown name is a 404, and the HELP and
// TYPE lines of a standalone frontend's /metrics equal the golden file
// (WriteText sorts families, so the file is deterministic).
func TestSurfacePinned(t *testing.T) {
	c := newCluster(t)
	allow := map[string]string{
		"sql": "GET, POST", "fork": "POST", "kill": "POST", "shoot": "POST",
		"integrate": "POST", "adduser": "POST", "reinstall-cluster": "POST",
		"consistency": "GET", "relays": "GET", "health": "GET", "supervisor": "GET",
		"dbstats": "GET", "diststats": "GET", "events": "GET", "facts": "GET, POST",
		"nodes": "GET", "dbreport": "GET", "federation": "GET",
		"federation/register": "POST", "federation/events": "GET, POST",
		"federation/remirror": "POST", "audit": "GET",
	}
	if len(allow) != 22 {
		t.Fatalf("the table names %d endpoints, want 22", len(allow))
	}
	for name, want := range allow {
		code, body, hdr := v1Call(t, c, http.MethodPut, "/v1/"+name, nil)
		if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != want {
			t.Errorf("PUT /v1/%s = %d (Allow %q), want 405 (Allow %q)", name, code, hdr.Get("Allow"), want)
			continue
		}
		if e := errorOf(t, body); e.Code != "method_not_allowed" {
			t.Errorf("PUT /v1/%s error = %+v", name, e)
		}
	}
	if code, _, _ := v1Call(t, c, http.MethodGet, "/v1/no-such-endpoint", nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/no-such-endpoint = %d, want 404", code)
	}

	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(got), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			lines = append(lines, line)
		}
	}
	golden, err := os.ReadFile("testdata/metrics_help.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for i := 0; i < max(len(lines), len(want)); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("/metrics line %d of the HELP/TYPE listing:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
