// Package core assembles the complete Rocks system: a frontend running the
// cluster database, the kickstart CGI, the HTTP distribution server, DHCP,
// syslog, NIS, NFS, and PBS/Maui — plus the lifecycle machinery that boots,
// installs, discovers, and reinstalls compute nodes. It is the public
// façade a downstream user programs against; the cmd/ tools and examples
// are thin wrappers over it.
package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
	"rocks/internal/dist"
	"rocks/internal/faults"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/insertethers"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/nfs"
	"rocks/internal/nis"
	"rocks/internal/node"
	"rocks/internal/pbs"
	"rocks/internal/power"
	"rocks/internal/rpm"
	"rocks/internal/syslogd"
)

// FrontendIP is the frontend's address on the private network, as in
// Table II.
const FrontendIP = "10.1.1.1"

// Config parameterizes cluster construction.
type Config struct {
	// Name is the cluster's name (site attribute ClusterName).
	Name string
	// Sources are the rocks-dist inputs; nil means the synthetic Red Hat
	// mirror plus the local Rocks packages.
	Sources []dist.Source
	// ParentURL, when set, is a parent distribution served over HTTP (an
	// NPACI or campus master, Figure 6); it is mirrored with wget-over-HTTP
	// semantics and layered under Sources, so this cluster's distribution
	// derives from the parent.
	ParentURL string
	// Framework is the XML configuration infrastructure; nil means the
	// stock Rocks graph.
	Framework *kickstart.Framework
	// DisableEKV turns off per-install eKV listeners (large fan-outs).
	DisableEKV bool
	// DHCPRetry/DHCPTimeout tune the installer's discovery loop.
	DHCPRetry   time.Duration
	DHCPTimeout time.Duration
	// ListenAddr is where the frontend's HTTP service binds; empty means
	// an ephemeral loopback port (tests) — cluster-sim sets a fixed port
	// so the CLI tools can find it.
	ListenAddr string
	// Faults, when set, injects deterministic failures at the cluster's
	// service seams: DHCP offers dropped on the bus, installer HTTP
	// traffic corrupted per-node, PDU cycle commands vetoed, and installs
	// wedged at stage boundaries. Nil means no injection (production).
	Faults *faults.Injector
	// InstallRetries bounds the installer's automatic, non-interactive
	// retries per fetch before the install crashes. Zero means the
	// default (2); negative disables automatic retries.
	InstallRetries int
	// InstallRetryBackoff is the initial wait between those retries
	// (doubling per attempt); zero means the installer default.
	InstallRetryBackoff time.Duration
	// DBDir, when set, makes the cluster database durable: mutations append
	// to a write-ahead log in this directory and Close snapshots it, so a
	// frontend restarted on the same directory recovers every node binding
	// a crash would otherwise lose. Empty means in-memory (pure-simulation
	// tests).
	DBDir string
	// DBFsync forces every WAL record to stable storage before its
	// statement applies (the last-record guarantee, at one fsync per
	// mutation).
	DBFsync bool
	// EnableRelays turns on the peer distribution tier: completed nodes
	// re-serve their verified package trees, the frontend's /v1/relays
	// registry hands installers prioritized peer sources, and installs
	// fetch peer-first with the frontend as fallback. Off by default —
	// installs then touch only the frontend, exactly as before.
	EnableRelays bool
	// Parent, when set, is another frontend's base URL: this cluster runs
	// as a *child frontend* in a federated hierarchy. It mirrors the
	// parent's distribution (ParentURL defaults to Parent's /install/dist
	// when unset), registers its shard over /v1/federation/register, and
	// forwards its lifecycle events upstream; its simulated hardware draws
	// MACs from an OUI derived from the shard name, so federated
	// populations cannot collide. Construction fails if the parent is
	// unreachable, the same way a failed parent mirror does.
	Parent string
	// Shard declares the slice of the population this frontend owns. The
	// zero value normalizes to "all racks" under the cluster's name.
	Shard federation.Shard
	// FederationTimeout bounds every federation HTTP call (registration,
	// event forwarding, and parent-side fan-outs); zero means 2s. A dark
	// child costs the parent one bounded wait, never a hung merged query.
	FederationTimeout time.Duration
}

// Cluster is a running Rocks cluster.
type Cluster struct {
	cfg Config

	// ctx is the cluster's root context: every long-running path — node
	// installs, the supervisor, monitors, the report coalescer — derives
	// from it, so Close cancels all in-flight work deterministically.
	ctx    context.Context
	cancel context.CancelFunc

	// events is the lifecycle spine: installer, monitor, supervisor,
	// insert-ethers, the PDU, and the cluster itself publish typed
	// node-lifecycle events into one bounded ring (/v1/events).
	events *lifecycle.Bus

	DB     *clusterdb.Database
	Syslog *syslogd.Collector
	Bus    *dhcp.Bus
	DHCPd  *dhcp.Server
	Dist   *dist.Distribution
	NIS    *nis.Domain
	NFS    *nfs.Server
	Home   *nfs.Export
	PBS    *pbs.Server
	PDU    *power.PDU

	Frontend *node.Node
	macs     *hardware.MACAllocator

	httpLn  net.Listener
	httpSrv *http.Server
	baseURL string
	// distSrv serves c.Dist under /install/dist/ and counts its traffic;
	// mirrorReport records the parent replication pass when ParentURL was
	// set. Both feed /v1/diststats. mirrorRepo keeps the mirrored repo
	// itself as the delta baseline for Remirror, and localSources the
	// pre-mirror source list a rebuild layers under the fresh mirror.
	distSrv      *dist.Server
	mirrorReport *dist.MirrorReport
	mirrorRepo   *rpm.Repository
	localSources []dist.Source
	ksAttrs      map[string]string // shared kickstart attributes; never mutated after startHTTP
	ksCache      *kickstart.ProfileCache

	mu          sync.Mutex
	nodes       map[string]*node.Node // by MAC
	byName      map[string]*node.Node
	outlets     int
	quarantined map[string]bool
	quarSeq     int64 // bumps on every quarantine-set change (report guard)
	supervisor  *Supervisor

	// supStats counts remediation actions across supervisor restarts;
	// installStats does the same for installer outcomes across node churn.
	supStats     supervisorStats
	installStats installer.Stats

	// metricsReg is the one scrapeable surface (/metrics) every layer's
	// counters register on; audit records every mutating control-plane
	// call; apiReqs counts control-plane traffic per operation.
	metricsReg *metrics.Registry
	audit      *auditLog
	apiReqs    *metrics.CounterVec

	// relays is the peer distribution registry (nil unless EnableRelays).
	relays *relayRegistry

	// fed is the federation half: shard declaration, upstream link when
	// this frontend is a child, child registry when it is a parent. Always
	// non-nil. cgiSeconds times kickstart.cgi request latency.
	fed        *fedState
	cgiSeconds *metrics.Histogram

	// facts is the inventory half of the install loop: every node's latest
	// first-boot report, its drift verdict against the database's expected
	// profile, and the per-field drift counters /metrics exposes. Always
	// non-nil; the durable rows live in clusterdb's facts table.
	facts *factsState

	reports reportCoalescer

	// recovery records what Open found when DBDir was set and held a
	// previous life's database; nil for fresh or in-memory databases.
	recovery *clusterdb.RecoveryInfo

	wg     sync.WaitGroup
	closed bool
}

// New builds and boots a cluster frontend: database, distribution, HTTP
// (kickstart CGI + package serving), DHCP, syslog, NIS, NFS, PBS, and a
// PDU. The frontend node itself is installed through the very kickstart
// pipeline it serves — the paper's frontends install from the same CD
// mechanism as compute nodes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Name == "" {
		cfg.Name = "Rocks Cluster"
	}
	if cfg.Framework == nil {
		cfg.Framework = kickstart.DefaultFramework()
	}
	// Federation normalization: a child frontend's distribution parent is
	// its federation parent's served tree unless overridden, and its shard
	// defaults to "everything, named after the cluster".
	if cfg.Parent != "" {
		cfg.Parent = strings.TrimSuffix(cfg.Parent, "/")
		if cfg.ParentURL == "" {
			cfg.ParentURL = cfg.Parent + "/install/dist"
		}
	}
	if cfg.Shard == (federation.Shard{}) {
		cfg.Shard = federation.Shard{Name: cfg.Name, RackLo: 0, RackHi: -1}
	}
	if cfg.Shard.Name == "" {
		cfg.Shard.Name = cfg.Name
	}
	if cfg.Sources == nil && cfg.ParentURL == "" {
		cfg.Sources = []dist.Source{
			{Name: "redhat-7.2", Repo: dist.SyntheticRedHat()},
			{Name: "rocks-local", Repo: dist.LocalRocksPackages()},
		}
	}
	// The root context exists before the first network touch (the parent
	// mirror below), so every mirror pass this cluster ever runs — initial
	// and Remirror — is cancellable by the same cancel Close calls.
	ctx, cancel := context.WithCancel(context.Background())
	localSources := cfg.Sources
	var mirrorReport *dist.MirrorReport
	var mirrorRepo *rpm.Repository
	if cfg.ParentURL != "" {
		// Default options: a 60s-timeout client (a wedged parent must not
		// hang frontend construction forever), 8 parallel fetch workers,
		// and bounded per-file retries. Every fetched body is verified
		// against the parent's digest manifest when it serves one.
		mirror, report, err := dist.Mirror(ctx, cfg.ParentURL, "parent-mirror", dist.MirrorOptions{})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("core: replicating parent distribution: %w", err)
		}
		mirrorReport = &report
		mirrorRepo = mirror
		cfg.Sources = append([]dist.Source{{Name: "parent-mirror", Repo: mirror}}, cfg.Sources...)
	}
	macs := hardware.NewMACAllocator()
	if cfg.Parent != "" {
		macs = hardware.NewMACAllocatorOUI(hardware.ShardOUI(cfg.Shard.Name))
	}
	c := &Cluster{
		cfg:          cfg,
		events:       lifecycle.NewBus(lifecycle.DefaultRingSize),
		Syslog:       syslogd.New(),
		Bus:          dhcp.NewBus(),
		NIS:          nis.NewDomain("rocks"),
		NFS:          nfs.NewServer(),
		PBS:          pbs.NewServer(),
		PDU:          power.NewPDU("pdu-0-0"),
		macs:         macs,
		nodes:        make(map[string]*node.Node),
		byName:       make(map[string]*node.Node),
		quarantined:  make(map[string]bool),
		localSources: localSources,
	}
	c.ctx, c.cancel = ctx, cancel
	c.facts = newFactsState()
	if cfg.DBDir != "" {
		// Durable database: recover whatever a previous life left behind —
		// the node bindings a frontend crash mid-discovery-storm would
		// otherwise silently lose.
		db, info, err := clusterdb.Open(cfg.DBDir, clusterdb.Options{
			Fsync:  cfg.DBFsync,
			Faults: cfg.Faults,
		})
		if err != nil {
			return nil, fmt.Errorf("core: opening cluster database in %s: %w", cfg.DBDir, err)
		}
		c.DB = db
		if !info.Fresh {
			c.recovery = &info
			c.events.Publish(lifecycle.Event{
				Node: "frontend-0", Phase: lifecycle.PhaseRun,
				Type: lifecycle.EventDBRecovered, Source: "clusterdb",
				Detail: info.String(),
			})
		}
	} else {
		c.DB = clusterdb.New()
	}
	// InitSchema is idempotent: on a recovered database (even one that
	// crashed mid-bootstrap) it fills in only what is missing.
	if err := clusterdb.InitSchema(c.DB); err != nil {
		c.DB.Close()
		return nil, err
	}
	if err := clusterdb.SetSiteValue(c.DB, "ClusterName", cfg.Name); err != nil {
		c.DB.Close()
		return nil, err
	}
	c.Dist = dist.Build(cfg.Name, cfg.Framework, cfg.Sources...)
	c.distSrv = dist.NewServer(c.Dist)
	c.mirrorReport = mirrorReport
	c.mirrorRepo = mirrorRepo
	// The CGI's memo: reinstall storms hit one (appliance, arch) class
	// hundreds of times; one traversal serves them all (§4, §6.1).
	c.ksCache = kickstart.NewProfileCache(c.Dist.Framework)
	c.DHCPd = dhcp.NewServer("frontend-0", c.Syslog)
	if cfg.Faults != nil {
		// Every seam the injector covers is wired here, so one Config
		// field turns the whole chaos apparatus on.
		c.Bus.Register(faults.WrapResponder(c.DHCPd, cfg.Faults))
		c.PDU.SetInterceptor(faults.PowerInterceptor(cfg.Faults))
	} else {
		c.Bus.Register(c.DHCPd)
	}
	c.Home = c.NFS.AddExport("/export/home")

	// Every relay actuation — supervisor remediation, an administrator's
	// manual cycle, a chaos test — lands on the bus as a pdu-sourced event.
	c.PDU.SetObserver(func(outlet int, label string, err error) {
		t := lifecycle.EventPowerCycled
		detail := fmt.Sprintf("outlet %d", outlet)
		if err != nil {
			t = lifecycle.EventPowerCycleFailed
			detail = fmt.Sprintf("outlet %d: %v", outlet, err)
		}
		e := lifecycle.Event{Phase: lifecycle.PhaseRemediate, Type: t, Source: "pdu", Detail: detail}
		// Outlets are labeled by MAC; surface the hostname when one exists.
		e.Node = label
		c.mu.Lock()
		if n, ok := c.nodes[label]; ok {
			e.MAC = label
			if name := n.Name(); name != "" {
				e.Node = name
			}
		}
		c.mu.Unlock()
		c.events.Publish(e)
	})

	// One scrapeable surface for every layer's counters, plus the audit
	// log the control plane records mutations into. Both must exist
	// before startHTTP registers their endpoints.
	c.audit = &auditLog{ring: lifecycle.NewRing[AuditEntry](auditRingSize)}
	if cfg.EnableRelays {
		c.relays = newRelayRegistry(c)
	}
	c.fed = newFedState(c)
	c.registerMetrics()

	if err := c.startHTTP(); err != nil {
		c.DB.Close()
		return nil, err
	}

	// Install the frontend through its own services. A recovered database
	// already holds the frontend's row; rebind it to this life's MAC (the
	// allocator restarts from scratch, so it usually matches anyway) instead
	// of tripping the unique name index.
	fe := node.New(hardware.Frontend(c.macs))
	c.Frontend = fe
	if existing, ok, err := clusterdb.NodeByName(c.DB, "frontend-0"); err != nil {
		c.Close()
		return nil, err
	} else if ok {
		if existing.MAC != fe.MAC() {
			if err := clusterdb.RebindNodeMAC(c.DB, "frontend-0", fe.MAC()); err != nil {
				c.Close()
				return nil, err
			}
		}
	} else if _, err := clusterdb.InsertNode(c.DB, clusterdb.Node{
		MAC: fe.MAC(), Name: "frontend-0", Membership: clusterdb.MembershipFrontend,
		IP: FrontendIP, Comment: "Gateway machine", Arch: fe.HW.Arch, CPUs: fe.HW.CPUs,
	}); err != nil {
		c.Close()
		return nil, err
	}
	if c.recovery != nil {
		// Recovered rows hold MACs from the previous life's allocator; take
		// them out of circulation so a *new* simulated machine cannot DHCP
		// into a recovered node's identity.
		rows, err := clusterdb.Nodes(c.DB, "")
		if err != nil {
			c.Close()
			return nil, err
		}
		for _, n := range rows {
			c.macs.Reserve(n.MAC)
		}
		// The inventory the previous life collected survives with the rows:
		// /v1/facts answers from the recovered table immediately.
		if err := c.loadFacts(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := insertethers.SyncDHCP(c.DB, c.DHCPd, c.baseURL); err != nil {
		c.Close()
		return nil, err
	}
	c.trackNode(fe)
	if err := c.bootOnce(c.ctx, fe); err != nil {
		c.Close()
		return nil, fmt.Errorf("core: installing frontend: %w", err)
	}
	if err := c.WriteReports(); err != nil {
		c.Close()
		return nil, err
	}
	if cfg.Parent != "" {
		// Announce this child's shard upstream and start streaming its
		// lifecycle events; an unreachable parent fails construction the
		// same way a failed parent mirror does.
		if err := c.fed.registerWithParent(); err != nil {
			c.Close()
			return nil, fmt.Errorf("core: registering with parent frontend: %w", err)
		}
		c.fed.startForwarder()
	}
	return c, nil
}

// BaseURL returns the frontend's HTTP root (kickstart CGI and dist).
func (c *Cluster) BaseURL() string { return c.baseURL }

// Events returns the cluster's lifecycle event bus. Subscribe for reactive
// consumption, or query Recent/Timeline for the bounded history that
// /v1/events serves.
func (c *Cluster) Events() *lifecycle.Bus { return c.events }

// NodeTimeline returns every lifecycle event for a node, identified by
// hostname or MAC, across its identities: events published before
// insert-ethers bound a name carry the MAC, later ones the hostname. The
// result is the /v1/events?node=X view — discover through install, up,
// dark, and remediation — in publish order.
func (c *Cluster) NodeTimeline(hostOrMAC string) []lifecycle.Event {
	return c.events.Recent(c.nodeFilter(hostOrMAC))
}

// nodeFilter selects a node's events under both of its identities: the one
// given and, when the node is tracked, the other (its MAC for a hostname,
// its hostname for a MAC).
func (c *Cluster) nodeFilter(hostOrMAC string) lifecycle.Filter {
	f := lifecycle.Filter{Node: hostOrMAC}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.byName[hostOrMAC]; ok {
		f.Alias = n.MAC()
	} else if n, ok := c.nodes[hostOrMAC]; ok {
		f.Alias = n.Name()
	}
	return f
}

// Handler exposes the frontend's HTTP mux for in-process dispatch — load
// tests and benchmarks can drive the full CGI path without a socket.
func (c *Cluster) Handler() http.Handler { return c.httpSrv.Handler }

// KickstartCacheStats reports the CGI profile cache's traffic: template
// hits, template builds, and generation-stamp invalidations.
func (c *Cluster) KickstartCacheStats() (hits, misses, invalidations uint64) {
	return c.ksCache.Stats()
}

// MACs returns the cluster's Ethernet address allocator; all simulated
// hardware on the private segment must draw from it so addresses are
// unique.
func (c *Cluster) MACs() *hardware.MACAllocator { return c.macs }

// trackNode registers a node in the cluster's indexes and installs its
// reboot hook.
func (c *Cluster) trackNode(n *node.Node) {
	c.mu.Lock()
	c.nodes[n.MAC()] = n
	c.mu.Unlock()
	n.OnReboot = func() {
		// The node rebooted (shoot-node, reinstall job, or plain reboot):
		// it leaves the batch pool immediately and comes back through the
		// boot path.
		if name := n.Name(); name != "" {
			c.PBS.UnregisterMom(name)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := c.bootOnce(c.ctx, n); err != nil {
				c.Syslog.Log("frontend-0", "rocks", "node %s failed to boot: %v", n.Name(), err)
			}
		}()
	}
}

// installerConfig builds the per-node install configuration. Leaving HTTP
// nil lets the installer use its own bounded-timeout default client; under
// fault injection each node gets a private client whose transport knows the
// node's identities (MAC always, name and IP once assigned — a node learns
// its hostname mid-install, so identities are late-bound).
func (c *Cluster) installerConfig(n *node.Node) installer.Config {
	retries := c.cfg.InstallRetries
	switch {
	case retries == 0:
		retries = 2
	case retries < 0:
		retries = 0
	}
	cfg := installer.Config{
		Bus:          c.Bus,
		DHCPRetry:    c.cfg.DHCPRetry,
		DHCPTimeout:  c.cfg.DHCPTimeout,
		DisableEKV:   c.cfg.DisableEKV,
		FetchRetries: retries,
		FetchBackoff: c.cfg.InstallRetryBackoff,
		Events:       c.events,
		Stats:        &c.installStats,
	}
	if c.relays != nil && n != c.Frontend {
		// Each install accumulates its verified packages in a fresh store;
		// the registry promotes it to a serving relay on install-complete.
		store := rpm.NewRepository(n.MAC() + "-relay")
		c.relays.expect(n.MAC(), store)
		cfg.RelayStore = store
	}
	if n != c.Frontend {
		// The first-boot facts agent: after install-complete the node
		// probes its hardware and reports to the frontend, which diffs the
		// report against the database's expected profile. The frontend
		// itself does not report — it is the diffing side.
		cfg.FrontendURL = c.baseURL
	}
	if c.cfg.Faults != nil && n != c.Frontend {
		identities := func() []string { return []string{n.MAC(), n.Name(), n.IP()} }
		cfg.HTTP = &http.Client{
			// As the installer's own default: per request, so per package
			// stream — a stream it cuts short resumes where it stopped.
			Timeout:   60 * time.Second,
			Transport: faults.NewTransport(c.cfg.Faults, nil, identities),
		}
		cfg.FaultHook = faults.InstallHook(c.cfg.Faults, identities)
		cfg.FactsHook = faults.FactsHook(c.cfg.Faults, identities)
	}
	return cfg
}

// bootOnce takes a node through one power-on: install if needed, then come
// up and join the cluster's services. The context bounds the whole boot —
// cancelling it (Cluster.Close) aborts an in-flight install promptly.
func (c *Cluster) bootOnce(ctx context.Context, n *node.Node) error {
	if n.NeedsInstall() {
		if _, err := installer.Run(ctx, n, c.installerConfig(n)); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.comeUp(n)
}

// comeUp transitions an installed node to Up: bind NIS, mount home over
// NFS, register the PBS mom (compute nodes), and index the hostname.
func (c *Cluster) comeUp(n *node.Node) error {
	n.SetState(node.StateUp)
	name := n.Name()
	if name == "" {
		return fmt.Errorf("core: node %s has no hostname after boot", n.MAC())
	}
	c.mu.Lock()
	c.byName[name] = n
	c.mu.Unlock()

	// ypbind: pull the account map and materialize /etc/passwd.nis.
	b := nis.Bind(c.NIS)
	if m, _ := b.Refresh(); m != "" {
		n.Disk().WriteFile("/etc/passwd.nis", []byte(m), 0o644)
	}
	// mount home (compute nodes only; the frontend *is* the server).
	if n != c.Frontend {
		if _, err := c.NFS.Mount("/export/home", "/home", name); err != nil {
			c.Syslog.Log(name, "mount", "NFS mount failed: %v", err)
		}
	}
	// pbs-mom registers with the server and a scheduling pass runs.
	if _, ok := n.PackageDB().Query("pbs-mom"); ok {
		c.PBS.RegisterMom(name, n)
		c.PBS.Schedule()
	}
	c.Syslog.Log(name, "rocks", "node up (kernel %s, %d packages)",
		n.KernelVersion(), n.PackageDB().Len())
	c.events.Publish(lifecycle.Event{
		Node:   name,
		MAC:    n.MAC(),
		Phase:  lifecycle.PhaseRun,
		Type:   lifecycle.EventUp,
		Source: "cluster",
		Detail: fmt.Sprintf("kernel %s, %d packages", n.KernelVersion(), n.PackageDB().Len()),
	})
	return nil
}

// NodeByName returns a tracked node.
func (c *Cluster) NodeByName(name string) (*node.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byName[name]
	return n, ok
}

// Nodes returns all tracked nodes keyed by MAC (a copy).
func (c *Cluster) Nodes() map[string]*node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*node.Node, len(c.nodes))
	for k, v := range c.nodes {
		out[k] = v
	}
	return out
}

// Quarantine pulls a node out of service without removing it: the host is
// marked offline in PBS (never scheduled again), its mom is unregistered
// (failing any running job — the honest consequence), and the reports
// regenerate with the offline mark. The database row, DHCP binding, and
// PDU outlet survive so the machine can be repaired and returned with
// Unquarantine. Host may be a hostname or, for nodes that died before
// naming, a MAC.
func (c *Cluster) Quarantine(host string) error {
	c.mu.Lock()
	c.quarantined[host] = true
	c.quarSeq++
	c.mu.Unlock()
	c.PBS.SetOffline(host, true)
	c.PBS.UnregisterMom(host)
	c.Syslog.Log("frontend-0", "rocks", "quarantined %s: offline in PBS, awaiting repair", host)
	return c.WriteReports()
}

// Unquarantine returns a repaired node to service. The node rejoins the
// batch pool on its next successful boot (its mom re-registers in comeUp).
func (c *Cluster) Unquarantine(host string) error {
	c.mu.Lock()
	delete(c.quarantined, host)
	c.quarSeq++
	c.mu.Unlock()
	c.PBS.SetOffline(host, false)
	c.Syslog.Log("frontend-0", "rocks", "unquarantined %s", host)
	c.supStats.unquarantines.Add(1)
	c.events.Publish(lifecycle.Event{
		Node: host, Phase: lifecycle.PhaseRemediate,
		Type: lifecycle.EventUnquarantine, Source: "cluster",
	})
	return c.WriteReports()
}

// IsQuarantined reports whether the host is quarantined.
func (c *Cluster) IsQuarantined(host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined[host]
}

// Quarantined lists quarantined hosts, sorted.
func (c *Cluster) Quarantined() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.quarantined))
	for h := range c.quarantined {
		out = append(out, h)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// AddUser creates an account on the frontend: an NIS map entry plus a home
// directory on the NFS export. Compute nodes see it without reinstalling.
func (c *Cluster) AddUser(name string, uid int) error {
	if err := c.NIS.AddUser(nis.User{Name: name, UID: uid, GID: uid}); err != nil {
		return err
	}
	m, _ := c.NFS.Mount("/export/home", "/home", "frontend-0")
	return m.WriteFile("/home/"+name+"/.profile", []byte("# "+name+"\n"))
}

// Close shuts the cluster down deterministically: the root context is
// cancelled first, which aborts in-flight installs at their next phase
// boundary and reaps every context-started monitor loop; then the
// supervisor, report timer, and HTTP listener stop, and the node goroutines
// drain. After Close returns, no cluster goroutine is left running.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	sup := c.supervisor
	c.mu.Unlock()
	c.cancel()
	c.stopReportTimer()
	if sup != nil {
		sup.Stop()
	}
	if c.relays != nil {
		c.relays.closeAll()
	}
	if c.httpSrv != nil {
		// Close the server, not just the listener: accepted keep-alive
		// connections (an installer's pooled conns, a parent's fan-out
		// client) would otherwise keep answering after shutdown — a closed
		// frontend must go dark, not half-dark.
		c.httpSrv.Close()
	}
	if c.httpLn != nil {
		c.httpLn.Close()
	}
	c.wg.Wait()
	// Last: a final snapshot bounds the next Open's replay. After wg.Wait
	// no cluster goroutine can still be writing.
	if err := c.DB.Close(); err != nil {
		c.Syslog.Log("frontend-0", "clusterdb", "closing database: %v", err)
	}
}

// Recovery reports what the durable database recovered at startup: nil when
// the database was in-memory or the directory was fresh.
func (c *Cluster) Recovery() *clusterdb.RecoveryInfo { return c.recovery }
