package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
)

// startHTTP serves the frontend's web service on its public listener and
// on private, its listener on the private network:
//
//	/install/kickstart.cgi  — dynamic kickstart generation (§6.1)
//	/install/dist/...       — the distribution tree (RPMs over HTTP, §5)
//	/tables/nodes           — Table II rendered from the live database
//	/tables/memberships     — Table III
//	/graph.dot              — the kickstart graph (Figure 4)
//	/metrics, /v1/...       — the scrape and the control plane
func (c *Cluster) startHTTP(private net.Listener) {
	// The shared attribute set every kickstart request substitutes. Built
	// once: it is also the profile cache's key, and it must never be
	// mutated per request (per-node values ride in Request.NodeAttrs).
	c.ksAttrs = kickstart.DefaultAttrs(c.baseURL+"/install/dist", FrontendIP)

	mux := http.NewServeMux()
	mux.HandleFunc("/install/kickstart.cgi", c.kickstartCGI)
	mux.Handle("/install/dist/", http.StripPrefix("/install/dist", c.distSrv))
	mux.HandleFunc("/tables/nodes", func(w http.ResponseWriter, r *http.Request) {
		report, err := clusterdb.NodesTableReport(c.DB)
		writeReport(w, report, err)
	})
	mux.HandleFunc("/tables/memberships", func(w http.ResponseWriter, r *http.Request) {
		report, err := clusterdb.MembershipsTableReport(c.DB)
		writeReport(w, report, err)
	})
	mux.HandleFunc("/graph.dot", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, c.Dist.Framework.DOT())
	})
	mux.HandleFunc("/install/frontend-form", c.frontendForm)
	mux.HandleFunc("/metrics", c.fed.serveMetrics)
	c.registerAdmin(mux)
	c.httpSrv = &http.Server{Handler: mux}
	for _, ln := range []net.Listener{c.httpLn, private} {
		c.spawn(func() {
			// Serve only returns on listener failure or shutdown; anything but
			// the expected close is worth a syslog line, not silence.
			if err := c.httpSrv.Serve(ln); err != nil &&
				!errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				c.Syslog.Log("frontend-0", "httpd", "frontend HTTP serve: %v", err)
			}
		})
	}
}

// kickstartTexts keeps the buffers kickstart files are written through.
var kickstartTexts = sync.Pool{New: func() any { return new([]byte) }}

func writeReport(w http.ResponseWriter, report string, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, report)
}

// kickstartCGI is the §6.1 CGI: resolve the requesting IP to a node row,
// the node's membership to an appliance, traverse the graph for the node's
// architecture, and return the rendered kickstart file.
func (c *Cluster) kickstartCGI(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { c.cgiSeconds.Observe(time.Since(start).Seconds()) }()
	ip := r.Header.Get(installer.ClientIPHeader)
	if ip == "" {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			http.Error(w, "cannot determine client address", http.StatusBadRequest)
			return
		}
		ip = host
	}
	n, ok, err := clusterdb.NodeByIP(c.DB, ip)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, fmt.Sprintf("no node registered at %s (run insert-ethers)", ip), http.StatusNotFound)
		return
	}
	_, _, rootNode, err := clusterdb.ApplianceForMembership(c.DB, n.Membership)
	if err != nil || rootNode == "" {
		http.Error(w, fmt.Sprintf("membership %d has no kickstartable appliance", n.Membership), http.StatusForbidden)
		return
	}
	arch := r.FormValue("arch")
	switch {
	case arch == "":
		arch = n.Arch
	case !kickstart.KnownArch(arch):
		// The value is client-supplied; anything outside the known set is
		// rejected before it can reach the database or the graph.
		http.Error(w, fmt.Sprintf("unknown architecture %q", arch), http.StatusBadRequest)
		return
	case arch != n.Arch:
		// Record the architecture the installer actually detected — the
		// database can't know it before the machine first boots.
		if err := clusterdb.SetNodeArch(c.DB, n.ID, arch); err != nil {
			c.Syslog.Log("frontend-0", "kickstart.cgi", "recording arch %s for %s: %v",
				arch, n.Name, err)
		}
	}
	req := kickstart.Request{
		Appliance: rootNode,
		Arch:      arch,
		NodeName:  n.Name,
		Attrs:     c.ksAttrs,
		NodeAttrs: map[string]string{"Kickstart_PublicHostname": n.Name},
	}
	// The file ends with its class's package resolution for the tree's state,
	// made once per both; a package the distribution lacks is the node's to report.
	profile, err := c.ksCache.Resolved(req, c.Dist.Repo.Stamp(), c.distSrv.Section)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	buf := kickstartTexts.Get().(*[]byte)
	*buf = profile.Append((*buf)[:0])
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.Write(*buf)
	kickstartTexts.Put(buf)
	c.Syslog.Log("frontend-0", "kickstart.cgi", "served %s profile to %s (%s)",
		rootNode, n.Name, ip)
}
