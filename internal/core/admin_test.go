package core

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"rocks/internal/clusterdb"
)

func TestAdminSQL(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{"q": {"SELECT name FROM nodes ORDER BY id"}})
	if code != 200 || !strings.Contains(body, "compute-0-1") {
		t.Errorf("sql: %d %q", code, body)
	}
	// Mutations rejected without exec=1.
	code, _, _ = v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{"q": {"DELETE FROM nodes"}})
	if code != 400 {
		t.Errorf("mutation without exec: %d", code)
	}
	code, _, _ = v1Call(t, c, http.MethodPost, "/v1/sql", url.Values{
		"q":    {"UPDATE nodes SET comment = 'retired' WHERE name = 'compute-0-1'"},
		"exec": {"1"}})
	if code != 200 {
		t.Errorf("exec update: %d", code)
	}
	_, body, _ = v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{"q": {"SELECT comment FROM nodes WHERE name = 'compute-0-1'"}})
	if !strings.Contains(body, "retired") {
		t.Errorf("update lost: %q", body)
	}
	code, _, _ = v1Call(t, c, http.MethodGet, "/v1/sql", nil)
	if code != 400 {
		t.Errorf("missing q: %d", code)
	}
}

func TestAdminForkAndKill(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	code, body, _ := v1Call(t, c, http.MethodPost, "/v1/fork", url.Values{"cmd": {"hostname"}})
	if code != 200 {
		t.Fatalf("fork: %d %s", code, body)
	}
	var fr ForkResponse
	dataOf(t, body, &fr)
	if len(fr.Results) != 2 || fr.Results[0].Output != "compute-0-0\n" {
		t.Errorf("fork results = %+v", fr)
	}

	nodes[0].StartProcess("runaway")
	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/kill", url.Values{"process": {"runaway"}})
	if code != 200 {
		t.Fatalf("kill: %d %s", code, body)
	}
	dataOf(t, body, &fr)
	if fr.Killed != 1 {
		t.Errorf("killed = %d", fr.Killed)
	}
}

func TestAdminIntegrateAndShoot(t *testing.T) {
	c := newCluster(t)
	code, body, _ := v1Call(t, c, http.MethodPost, "/v1/integrate", url.Values{"count": {"2"}, "wait": {"60"}})
	if code != 200 {
		t.Fatalf("integrate: %d %s", code, body)
	}
	var resp map[string][]string
	dataOf(t, body, &resp)
	if len(resp["integrated"]) != 2 || resp["integrated"][0] != "compute-0-0" {
		t.Errorf("integrated = %v", resp)
	}

	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/shoot", url.Values{"node": {"compute-0-0"}, "watch": {"1"}})
	if code != 200 {
		t.Fatalf("shoot: %d %s", code, body)
	}
	var shoot map[string]string
	dataOf(t, body, &shoot)
	if shoot["ekv"] == "" {
		t.Errorf("shoot did not report an eKV address: %v", shoot)
	}
	n, _ := c.NodeByName("compute-0-0")
	if !WaitState(n, "up", integrationTimeout) {
		t.Fatalf("node stuck in %s", n.State())
	}
	if n.Installs() != 2 {
		t.Errorf("installs = %d", n.Installs())
	}

	code, _, _ = v1Call(t, c, http.MethodPost, "/v1/shoot", url.Values{"node": {"ghost"}})
	if code != 404 {
		t.Errorf("shooting a ghost: %d, want 404 (unknown node)", code)
	}
}

func TestAdminAddUserAndConsistency(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)
	code, _, _ := v1Call(t, c, http.MethodPost, "/v1/adduser", url.Values{"name": {"bruno"}, "uid": {"500"}})
	if code != 200 {
		t.Fatalf("adduser: %d", code)
	}
	if _, ok := c.NIS.Lookup("bruno"); !ok {
		t.Error("user missing from NIS")
	}
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/consistency", nil)
	if code != 200 || !strings.Contains(body, `"reference":"compute-0-0"`) {
		t.Errorf("consistency: %d %q", code, body)
	}
}

func TestAdminReinstallCluster(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	code, body, _ := v1Call(t, c, http.MethodPost, "/v1/reinstall-cluster", url.Values{"wait": {"60"}})
	if code != 200 {
		t.Fatalf("reinstall-cluster: %d %s", code, body)
	}
	for _, n := range nodes {
		if n.Installs() != 2 {
			t.Errorf("%s installs = %d", n.Name(), n.Installs())
		}
	}
}

func TestKickstartCGIErrors(t *testing.T) {
	c := newCluster(t)
	// Unknown IP (header set to an unregistered address) → 404.
	req, _ := http.NewRequest("GET", c.BaseURL()+"/install/kickstart.cgi", nil)
	req.Header.Set("X-Rocks-Client-IP", "10.77.77.77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown IP: %d, want 404", resp.StatusCode)
	}
	// A membership with no appliance root (Ethernet Switches) → 403.
	if _, err := clusterdb.InsertNode(c.DB, clusterdb.Node{
		MAC: "sw:it:ch", Name: "network-0-0", Membership: clusterdb.MembershipEthernetSwitch,
		IP: "10.255.255.253"}); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest("GET", c.BaseURL()+"/install/kickstart.cgi", nil)
	req.Header.Set("X-Rocks-Client-IP", "10.255.255.253")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Errorf("switch membership: %d, want 403 (no kickstartable appliance)", resp.StatusCode)
	}
	// adduser without a name → 400.
	code, _, _ := v1Call(t, c, http.MethodPost, "/v1/adduser", nil)
	if code != 400 {
		t.Errorf("adduser without name: %d", code)
	}
	// Ping for unknown host.
	if ok, detail := c.floor.ping("nobody"); ok || detail != "unknown host" {
		t.Errorf("Ping(nobody) = %v %q", ok, detail)
	}
}

func TestDatabaseBackupOnFrontendDisk(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)
	raw, err := c.Frontend.Disk().ReadFile("/var/db/cluster.sql")
	if err != nil {
		t.Fatal(err)
	}
	restored := clusterdb.New()
	if err := clusterdb.Restore(restored, string(raw)); err != nil {
		t.Fatal(err)
	}
	res, err := restored.Query(`SELECT name FROM nodes ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	if len(got) != 2 || got[1] != "compute-0-0" {
		t.Errorf("backup rows = %v", got)
	}
}
