// Package insertethers implements the discovery utility of §6.4:
// "Insert-ethers monitors syslog messages for DHCP requests from new hosts
// and when found, generates a hostname, determines the next free IP
// address, binds the hostname and IP address to its Ethernet MAC address,
// and inserts this information into the database. Insert-ethers then
// rebuilds service-specific configuration files by running queries against
// the database, and restarting the respective services."
package insertethers

import (
	"fmt"
	"strings"
	"sync"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
	"rocks/internal/lifecycle"
	"rocks/internal/syslogd"
)

// Config wires insert-ethers to the frontend's services.
type Config struct {
	DB     *clusterdb.Database
	Syslog *syslogd.Collector
	DHCP   *dhcp.Server
	// NextServer is the kickstart server handed to discovered nodes (the
	// frontend's HTTP base).
	NextServer string
	// Membership is the membership ID assigned to discovered nodes; the
	// administrator picks it when starting insert-ethers (Compute by
	// default, or NFS/Web/switch types for other appliances).
	Membership int
	// Rack is the cabinet being populated; nodes are named
	// <basename>-<rack>-<rank> in discovery order.
	Rack int
	// Arch records the hardware architecture for discovered nodes.
	Arch string
	// CPUs per discovered node (for the PBS report).
	CPUs int
	// OnInsert, if set, is called after each successful insertion and
	// report regeneration (the hook the UI uses to redraw its screen, and
	// tests use to synchronize).
	OnInsert func(clusterdb.Node)
	// Replace names an existing node whose hardware was swapped (§3.1:
	// clusters evolve as "failed components are replaced"). The next
	// unknown MAC is bound to that node's row — same hostname, same IP,
	// new Ethernet address — instead of creating a new row. After one
	// replacement the session reverts to normal insertion.
	Replace string
	// Events, when non-nil, receives discovered/bound/replaced lifecycle
	// events so timelines show a node's life from its very first
	// DHCPDISCOVER.
	Events *lifecycle.Bus
	// FullSync restores the legacy behavior of rebuilding the entire DHCP
	// binding table from the database after every discovery — the
	// "regenerate dhcpd.conf and restart dhcpd" cost the paper's tools
	// paid per node. Default false: each discovery applies only its own
	// binding delta, and the table is reconciled with the database once
	// per report pass instead of once per node.
	FullSync bool
}

// InsertEthers is one running discovery session.
type InsertEthers struct {
	cfg    Config
	cancel func()
	done   chan struct{}

	mu       sync.Mutex
	inserted []clusterdb.Node
}

// Start begins monitoring syslog. Call Stop when the cabinet is fully
// discovered.
func Start(cfg Config) (*InsertEthers, error) {
	if cfg.DB == nil || cfg.Syslog == nil || cfg.DHCP == nil {
		return nil, fmt.Errorf("insertethers: DB, Syslog and DHCP are required")
	}
	if cfg.Membership == 0 {
		cfg.Membership = clusterdb.MembershipCompute
	}
	if cfg.Arch == "" {
		cfg.Arch = "i386"
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	ie := &InsertEthers{cfg: cfg, done: make(chan struct{})}
	ch, cancel := cfg.Syslog.Subscribe()
	ie.cancel = cancel
	go ie.loop(ch)
	return ie, nil
}

// Stop ends the discovery session.
func (ie *InsertEthers) Stop() {
	ie.cancel()
	<-ie.done
}

// Inserted returns the nodes added during this session, in discovery order.
func (ie *InsertEthers) Inserted() []clusterdb.Node {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return append([]clusterdb.Node(nil), ie.inserted...)
}

func (ie *InsertEthers) loop(ch <-chan syslogd.Message) {
	defer close(ie.done)
	for m := range ch {
		mac, ok := parseDiscover(m)
		if !ok {
			continue
		}
		if err := ie.insert(mac); err != nil {
			ie.cfg.Syslog.Log("frontend-0", "insert-ethers", "error inserting %s: %v", mac, err)
		}
	}
}

// parseDiscover extracts the MAC from a dhcpd DHCPDISCOVER log line.
func parseDiscover(m syslogd.Message) (string, bool) {
	if m.Tag != "dhcpd" {
		return "", false
	}
	fields := strings.Fields(m.Text)
	if len(fields) < 3 || fields[0] != "DHCPDISCOVER" || fields[1] != "from" {
		return "", false
	}
	return fields[2], true
}

// emit publishes one lifecycle event when a bus is wired.
func (ie *InsertEthers) emit(e lifecycle.Event) {
	if ie.cfg.Events != nil {
		e.Phase = lifecycle.PhaseDiscover
		e.Source = "insert-ethers"
		ie.cfg.Events.Publish(e)
	}
}

// insert performs the §6.4 sequence for one new MAC.
func (ie *InsertEthers) insert(mac string) error {
	cfg := ie.cfg
	// Already known? (Duplicate DISCOVER from a retrying node.)
	if _, known, err := clusterdb.NodeByMAC(cfg.DB, mac); err != nil || known {
		return err
	}
	// A genuinely new MAC: the node has no name yet, so the event carries
	// its MAC as the identity (timelines merge the two later).
	ie.emit(lifecycle.Event{Node: mac, MAC: mac, Type: lifecycle.EventDiscovered,
		Detail: "new MAC on the private network"})
	// Hardware replacement: bind the new MAC to the existing row.
	ie.mu.Lock()
	replace := ie.cfg.Replace
	ie.mu.Unlock()
	if replace != "" {
		old, ok, err := clusterdb.NodeByName(cfg.DB, replace)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("insertethers: --replace %s: no such node", replace)
		}
		// The MAC arrives from a syslog line and the hostname from the
		// administrator's flag; both go through escaping, never raw SQL.
		if err := clusterdb.RebindNodeMAC(cfg.DB, replace, mac); err != nil {
			return err
		}
		if err := ie.syncOne(old.MAC, mac, old.IP, old.Name); err != nil {
			return err
		}
		cfg.Syslog.Log("frontend-0", "insert-ethers",
			"replaced %s: %s -> %s", replace, old.MAC, mac)
		ie.emit(lifecycle.Event{Node: old.Name, MAC: mac, Type: lifecycle.EventReplaced,
			Detail: fmt.Sprintf("hardware swap: %s -> %s, keeps %s", old.MAC, mac, old.IP)})
		old.MAC = mac
		ie.mu.Lock()
		ie.cfg.Replace = "" // one-shot
		ie.inserted = append(ie.inserted, old)
		ie.mu.Unlock()
		if cfg.OnInsert != nil {
			cfg.OnInsert(old)
		}
		return nil
	}
	// Name, rank, address and id are the database's to choose, in the same
	// hold of its write lock as the insert: another session on another rack
	// cannot be handed the same address.
	n, err := clusterdb.InsertDiscovered(cfg.DB, clusterdb.Node{
		MAC:        mac,
		Membership: cfg.Membership,
		Rack:       cfg.Rack,
		Comment:    "Discovered by insert-ethers",
		Arch:       cfg.Arch,
		CPUs:       cfg.CPUs,
	})
	if err != nil {
		return err
	}
	// Hand the node its DHCP binding so its next DISCOVER succeeds. The
	// delta path touches only this node's entry; the wholesale rebuild
	// (dbreport + dhcpd restart) is left to the coalesced report pass.
	if err := ie.syncOne("", n.MAC, n.IP, n.Name); err != nil {
		return err
	}
	cfg.Syslog.Log("frontend-0", "insert-ethers",
		"inserted %s (%s) at %s", n.Name, n.MAC, n.IP)
	ie.emit(lifecycle.Event{Node: n.Name, MAC: n.MAC, Type: lifecycle.EventBound,
		Detail: fmt.Sprintf("bound to %s", n.IP)})
	ie.mu.Lock()
	ie.inserted = append(ie.inserted, n)
	ie.mu.Unlock()
	if cfg.OnInsert != nil {
		cfg.OnInsert(n)
	}
	return nil
}

// Discover runs the discovery sequence for one MAC synchronously, as if a
// DHCPDISCOVER syslog line had just arrived — the entry point benchmarks
// and tools use to drive insertion without racing a lossy syslog channel.
func (ie *InsertEthers) Discover(mac string) error {
	return ie.insert(mac)
}

// syncOne applies a single node's DHCP binding delta: drop the old MAC's
// binding (hardware replacement) and bind the new one. Under FullSync it
// instead rebuilds the whole table the way the original tools did.
func (ie *InsertEthers) syncOne(oldMAC, mac, ip, hostname string) error {
	cfg := ie.cfg
	if cfg.FullSync {
		return SyncDHCP(cfg.DB, cfg.DHCP, cfg.NextServer)
	}
	if oldMAC != "" && oldMAC != mac {
		cfg.DHCP.RemoveBinding(oldMAC)
	}
	if mac != "" && ip != "" {
		cfg.DHCP.SetBinding(mac, dhcp.Binding{IP: ip, Hostname: hostname, NextServer: cfg.NextServer})
	}
	return nil
}

// SyncDHCP regenerates the DHCP server's bindings from the nodes table —
// the equivalent of writing /etc/dhcpd.conf from a dbreport and restarting
// dhcpd.
func SyncDHCP(db *clusterdb.Database, srv *dhcp.Server, nextServer string) error {
	since := srv.Generation() // before the read: see dhcp.Server.Reconcile
	nodes, err := clusterdb.Nodes(db, "")
	if err != nil {
		return err
	}
	want := make([]dhcp.Host, 0, len(nodes))
	for _, n := range nodes {
		if n.MAC != "" && n.IP != "" {
			want = append(want, dhcp.Host{MAC: n.MAC, Binding: dhcp.Binding{IP: n.IP, Hostname: n.Name, NextServer: nextServer}})
		}
	}
	srv.Reconcile(since, want)
	return nil
}

// Screen renders the discovery session's status display — the information
// the real insert-ethers presented in its text UI: the appliance type being
// inserted and the nodes found so far, newest last.
func (ie *InsertEthers) Screen() string {
	ie.mu.Lock()
	inserted := append([]clusterdb.Node(nil), ie.inserted...)
	membership := ie.cfg.Membership
	rack := ie.cfg.Rack
	ie.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "+-------------------- Inserted Appliances --------------------+\n")
	fmt.Fprintf(&b, "| membership %-3d rack %-3d %36s |\n", membership, rack, "")
	if len(inserted) == 0 {
		fmt.Fprintf(&b, "| %-60s |\n", "waiting for new nodes to DHCP...")
	}
	for _, n := range inserted {
		fmt.Fprintf(&b, "| %-16s %-20s %-22s |\n", n.Name, n.MAC, n.IP)
	}
	fmt.Fprintf(&b, "+--------------------------------------------------------------+\n")
	return b.String()
}
