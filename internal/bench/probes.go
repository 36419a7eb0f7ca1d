package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/hardware"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/rpm"
)

// Probes time single calls into one layer with the system at rest, after
// the timed section, at whatever table and ring sizes the workload left
// behind. They are the per-layer costs with no queueing in them; the gap to
// the same operation under load is the waiting the workload imposes.

// probe times reps calls of fn after one warm-up call and reports the mean
// under metric, in the unit its name ends in. The batch is one span.
func (r *run) probe(metric, layer string, reps int, fn func() error) {
	if err := fn(); err != nil {
		r.errorf("probe %s: %v", metric, err)
		return
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			r.errorf("probe %s: %v", metric, err)
			return
		}
	}
	t1 := time.Now()
	r.rec.Add(r.rec.NewTrace(), 0, layer, "probe "+metric, t0, t1)
	per := t1.Sub(t0).Seconds() / float64(reps)
	scale := 1e6 // metric names end in _us …
	if strings.HasSuffix(metric, "_ms") {
		scale = 1e3 // … or _ms
	}
	r.set(metric, per*scale, reps)
}

// serve dispatches one request straight into the frontend's mux, without a
// socket, and fails on anything but 200.
func serve(h http.Handler, req *http.Request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: HTTP %d: %.80s", req.Method, req.URL, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// cgiRequest is the kickstart request the installer of a node of this
// architecture, leased this IP, sends.
func cgiRequest(arch, ip string) *http.Request {
	req := httptest.NewRequest("GET", "/install/kickstart.cgi?arch="+arch, nil)
	req.Header.Set(installer.ClientIPHeader, ip)
	return req
}

// resolvedPackages asks the kickstart CGI for a node's profile, as the
// node's installer does, and resolves it against the distribution.
func resolvedPackages(c *core.Cluster, arch, ip string) ([]*rpm.Package, error) {
	rec, err := serve(c.Handler(), cgiRequest(arch, ip))
	if err != nil {
		return nil, err
	}
	profile, err := kickstart.ParseProfile(rec.Body.String())
	if err != nil {
		return nil, err
	}
	profile.Arch = arch // the rendered file does not carry it; the installer resolves for its own
	return c.Dist.ResolveProfile(profile)
}

// get is serve for a plain GET.
func get(h http.Handler, target string) func() error {
	return func() error {
		_, err := serve(h, httptest.NewRequest("GET", target, nil))
		return err
	}
}

// adminQueries are the admin_mix query kinds: the same seven requests are
// the foreground mix under load and the handler probes at rest. The point
// query's name is filled in per request.
var adminQueries = []struct{ op, target, probe string }{
	{"nodes", "/v1/nodes", "core.nodes_probe_us"},
	{"sql_join", "/v1/sql?q=" + url.QueryEscape("select nodes.name from nodes, memberships where nodes.membership = memberships.id and memberships.compute = 'yes'"), "core.sql_join_probe_us"},
	{"sql_point", "/v1/sql?q=", "core.sql_point_probe_us"},
	{"dbreport_hosts", "/v1/dbreport?report=hosts", "core.dbreport_probe_us"},
	{"dbreport_dhcp", "/v1/dbreport?report=dhcp", ""},
	{"events", "/v1/events?limit=100", "core.events_probe_us"},
	{"metrics", "/metrics", "core.metrics_probe_us"},
}

func pointQuery(name string) string {
	return url.QueryEscape("select name, mac, ip from nodes where name = '" + name + "'")
}

// probeFrontend runs every at-rest probe against a frontend. target is a
// registered compute row: the CGI resolves its IP, the package probes serve
// what its profile resolves to, and the facts probe reports hw for it.
func probeFrontend(r *run, c *core.Cluster, target clusterdb.Node, hw hardware.Profile) {
	h := c.Handler()
	_, _, appliance, err := clusterdb.ApplianceForMembership(c.DB, target.Membership)
	if err != nil {
		r.errorf("probe: appliance of %s: %v", target.Name, err)
		return
	}

	// kickstart CGI, and the generator under it with and without the memo.
	cgi := cgiRequest(target.Arch, target.IP)
	r.probe("core.cgi_probe_us", "core", 200, func() error { _, err := serve(h, cgi); return err })
	req := kickstart.Request{
		Appliance: appliance, Arch: target.Arch, NodeName: target.Name,
		Attrs:     kickstart.DefaultAttrs(c.BaseURL()+"/install/dist", core.FrontendIP),
		NodeAttrs: map[string]string{"Kickstart_PublicHostname": target.Name},
	}
	cache := kickstart.NewProfileCache(c.Dist.Framework)
	r.probe("kickstart.generate_cached_us", "kickstart", 200, func() error { _, err := cache.Generate(req); return err })
	r.probe("kickstart.generate_uncached_us", "kickstart", 20, func() error { _, err := c.Dist.Framework.Generate(req); return err })

	// dist serving and rpm decode+verify, over every package the target's
	// profile resolves to.
	pkgs, err := resolvedPackages(c, target.Arch, target.IP)
	if err != nil || len(pkgs) == 0 {
		r.errorf("probe: resolving profile: %d packages, %v", len(pkgs), err)
		return
	}
	bodies := make([][]byte, len(pkgs))
	i := 0
	r.probe("dist.serve_rpm_probe_us", "dist", 2*len(pkgs), func() error {
		k := i % len(pkgs)
		i++
		rec, err := serve(h, httptest.NewRequest("GET", "/install/dist/RedHat/RPMS/"+url.PathEscape(pkgs[k].Filename()), nil))
		bodies[k] = rec.Body.Bytes()
		return err
	})
	i = 0
	r.probe("rpm.read_verify_us", "rpm", 2*len(pkgs), func() error {
		k := i % len(pkgs)
		i++
		p, err := rpm.Read(bytes.NewReader(bodies[k]))
		if err == nil && p.Digest != pkgs[k].EnsureDigest() {
			err = fmt.Errorf("%s: digest differs from the distribution's", p.NVRA())
		}
		return err
	})

	// facts ingest: a clean report for the target, as its first-boot agent
	// would post it.
	facts, _ := json.Marshal(hardware.FactsFromProfile(hw, target.MAC, target.Name))
	r.probe("core.facts_post_probe_us", "core", 100, func() error {
		req := httptest.NewRequest("POST", "/v1/facts", bytes.NewReader(facts))
		req.Header.Set("Content-Type", "application/json")
		_, err := serve(h, req)
		return err
	})

	// clusterdb at the final table size.
	r.probe("clusterdb.point_lookup_probe_us", "clusterdb", 2000, func() error {
		n, ok, err := clusterdb.NodeByIP(c.DB, target.IP)
		if err == nil && !ok {
			err = fmt.Errorf("no row at %s", target.IP)
		}
		if err == nil {
			_, _, _, err = clusterdb.ApplianceForMembership(c.DB, n.Membership)
		}
		return err
	})
	r.probe("clusterdb.next_free_ip_probe_us", "clusterdb", 20, func() error { _, err := clusterdb.NextFreeIP(c.DB); return err })
	r.probe("clusterdb.report_probe_ms", "clusterdb", 10, func() error {
		for _, report := range []func(*clusterdb.Database) (string, error){
			clusterdb.HostsReport, clusterdb.DHCPReport, clusterdb.PBSNodesReport,
		} {
			if _, err := report(c.DB); err != nil {
				return err
			}
		}
		return nil
	})

	// The admin read handlers, and the ring scan under two of them.
	for _, q := range adminQueries {
		if q.probe == "" {
			continue
		}
		u := q.target
		if q.op == "sql_point" {
			u += pointQuery(target.Name)
		}
		r.probe(q.probe, "core", 20, get(h, u))
	}
	r.probe("lifecycle.recent_probe_us", "lifecycle", 100, func() error {
		c.Events().Recent(lifecycle.Filter{})
		return nil
	})
}
