package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
)

// startHTTP brings up the frontend's web service on a loopback port:
//
//	/install/kickstart.cgi  — dynamic kickstart generation (§6.1)
//	/install/dist/...       — the distribution tree (RPMs over HTTP, §5)
//	/status                 — node states as JSON (the monitoring view)
//	/tables/nodes           — Table II rendered from the live database
//	/tables/memberships     — Table III
//	/graph.dot              — the kickstart graph (Figure 4)
func (c *Cluster) startHTTP() error {
	addr := c.cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("core: frontend HTTP: %w", err)
	}
	c.httpLn = ln
	c.baseURL = "http://" + ln.Addr().String()
	// The shared attribute set every kickstart request substitutes. Built
	// once: it is also the profile cache's key, and it must never be
	// mutated per request (per-node values ride in Request.NodeAttrs).
	c.ksAttrs = kickstart.DefaultAttrs(c.baseURL+"/install/dist", FrontendIP)

	mux := http.NewServeMux()
	mux.HandleFunc("/install/kickstart.cgi", c.kickstartCGI)
	mux.Handle("/install/dist/", http.StripPrefix("/install/dist", c.distSrv))
	mux.HandleFunc("/status", c.statusHandler)
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
	mux.HandleFunc("/metrics", c.metricsHandler)
	c.registerAdmin(mux)
	c.httpSrv = &http.Server{Handler: mux}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Serve only returns on listener failure or shutdown; anything but
		// the expected close is worth a syslog line, not silence.
		if err := c.httpSrv.Serve(ln); err != nil &&
			!errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			c.Syslog.Log("frontend-0", "httpd", "frontend HTTP serve: %v", err)
		}
	}()
	return nil
}

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
	defer func() {
		if c.cgiSeconds != nil {
			c.cgiSeconds.Observe(time.Since(start).Seconds())
		}
	}()
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
	profile, err := c.ksCache.Generate(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, profile.Render())
	c.Syslog.Log("frontend-0", "kickstart.cgi", "served %s profile to %s (%s)",
		rootNode, n.Name, ip)
}

// NodeStatus is one row of the /status view.
type NodeStatus struct {
	Name     string `json:"name"`
	MAC      string `json:"mac"`
	IP       string `json:"ip"`
	State    string `json:"state"`
	Kernel   string `json:"kernel,omitempty"`
	Packages int    `json:"packages"`
	Installs int    `json:"installs"`
	EKV      string `json:"ekv,omitempty"`
}

// Status snapshots every tracked node, sorted by name.
func (c *Cluster) Status() []NodeStatus {
	// Unlock via defer: a panic in a node accessor must not leak the lock
	// and freeze every other status/tracking path.
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]NodeStatus, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, NodeStatus{
			Name:     n.Name(),
			MAC:      n.MAC(),
			IP:       n.IP(),
			State:    string(n.State()),
			Kernel:   n.KernelVersion(),
			Packages: n.PackageDB().Len(),
			Installs: n.Installs(),
			EKV:      n.EKVAddr(),
		})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

func (c *Cluster) statusHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Status())
}

// StatusTable renders Status as aligned text for CLI display.
func (c *Cluster) StatusTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %-16s %-11s %-10s %4s\n",
		"NAME", "MAC", "IP", "STATE", "KERNEL", "PKGS")
	for _, s := range c.Status() {
		fmt.Fprintf(&b, "%-14s %-18s %-16s %-11s %-10s %4d\n",
			s.Name, s.MAC, s.IP, s.State, s.Kernel, s.Packages)
	}
	return b.String()
}
