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
	"strings"
	"sync"
	"sync/atomic"
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
	"rocks/internal/memnet"
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
	// InstallRetryBackoff is the initial wait between the installer's
	// automatic, non-interactive retries of a fetch (two, doubling per
	// attempt); zero means the installer default.
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

// scope is the goroutine lifetime every subsystem starts work under: the
// cluster's root context, which Close cancels first, and the WaitGroup it
// then drains.
type scope struct {
	ctx context.Context
	wg  *sync.WaitGroup
}

// spawn runs f on a goroutine Close waits for.
func (s scope) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// Cluster is a running Rocks cluster. It is the composition root: it builds
// the services and the subsystems below, wires them, owns the Close order,
// and serves the frontend (the CGI, the control plane). The machines and
// their lifecycle (power-on, boot, come-up) are the floor's (floor.go).
type Cluster struct {
	cfg Config

	// Every long-running path — node installs, the supervisor, relays, the
	// federation forwarder — runs under the root scope, so Close cancels all
	// in-flight work deterministically.
	scope
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
	// private is every install's client. It dials only the private network,
	// where httpSrv also listens at baseURL's address (DESIGN.md §8).
	private *http.Client
	// distSrv serves c.Dist under /install/dist/ and counts its traffic;
	// mirror is the last parent replication pass (zero without a parent).
	// Both feed /v1/diststats. mirrorRepo keeps the mirrored repo itself as
	// the delta baseline for Remirror, and localSources the pre-mirror
	// source list a rebuild layers under the fresh mirror.
	distSrv      *dist.Server
	mirror       atomic.Pointer[dist.MirrorReport]
	mirrorRepo   *rpm.Repository
	localSources []dist.Source
	ksAttrs      map[string]string // shared kickstart attributes; never mutated after startHTTP
	ksCache      *kickstart.ProfileCache

	// The subsystems (DESIGN.md §14). Each owns its state, its lock, its /v1
	// endpoints and its /metrics families, and takes only what it uses.
	floor   *floor
	dir     *directory
	relays  *relayRegistry
	fed     *fedState
	facts   *factsState
	reports *reportCoalescer
	remedy  *remediation
	audit   *auditLog

	// installStats counts installer outcomes across node churn;
	// metricsReg is the one scrapeable surface (/metrics) every layer
	// registers on; cgiSeconds times kickstart.cgi request latency.
	installStats installer.Stats
	metricsReg   *metrics.Registry
	cgiSeconds   *metrics.Histogram

	// recovery records what Open found when DBDir was set and held a
	// previous life's database; nil for fresh or in-memory databases.
	recovery *clusterdb.RecoveryInfo

	closeOnce sync.Once
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
	mirrorReport := &dist.MirrorReport{}
	var mirrorRepo *rpm.Repository
	if cfg.ParentURL != "" {
		// Default options: a 60s-timeout client, so a wedged parent cannot
		// hang frontend construction forever. The pass is one stream of
		// what the parent's digest manifest lists, every body verified
		// against it as it arrives.
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
		scope:        scope{ctx: ctx, wg: new(sync.WaitGroup)},
		cancel:       cancel,
		events:       lifecycle.NewBus(lifecycle.DefaultRingSize),
		Syslog:       syslogd.New(),
		Bus:          dhcp.NewBus(),
		NIS:          nis.NewDomain("rocks"),
		NFS:          nfs.NewServer(),
		PBS:          pbs.NewServer(),
		PDU:          power.NewPDU("pdu-0-0"),
		Frontend:     node.New(hardware.Frontend(macs)),
		macs:         macs,
		mirrorRepo:   mirrorRepo,
		localSources: localSources,
		dir:          newDirectory(),
		audit:        &auditLog{ring: lifecycle.NewRing[AuditEntry](auditRingSize)},
		metricsReg:   metrics.NewRegistry(),
	}
	c.mirror.Store(mirrorReport)
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
	c.floor = newFloor(c.DB)
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
		// Outlets are labeled by MAC; name the node from its row.
		c.events.Publish(lifecycle.Event{Node: hostname(c.DB, label), MAC: label,
			Phase: lifecycle.PhaseRemediate, Type: t, Source: "pdu", Detail: detail})
	})

	// The frontend's address comes first: the subsystems hand it out.
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.DB.Close()
		return nil, fmt.Errorf("core: frontend HTTP: %w", err)
	}
	c.httpLn, c.baseURL = ln, "http://"+ln.Addr().String()
	// The private network: compute nodes reach the frontend and each other
	// only over it, as over a Rocks cluster's private Ethernet (§5).
	privNet := memnet.New()
	privLn, err := privNet.Listen(ln.Addr().String())
	if err != nil {
		ln.Close()
		c.DB.Close()
		return nil, fmt.Errorf("core: frontend private listener: %w", err)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.DialContext = privNet.DialContext
	// As the installer's own default: a timeout per request, so per package
	// stream — a stream it cuts short resumes where it stopped.
	c.private = &http.Client{Timeout: 60 * time.Second, Transport: transport}

	// The subsystems, each given only what it uses, then their families on
	// the one registry and their endpoints on the one mux.
	c.relays = newRelayRegistry(c.scope, c.DB, c.events, c.Syslog, privNet)
	c.fed = newFedState(cfg, c.scope, c.events, c.metricsReg)
	c.facts = newFactsState(c.DB, c.events, c.floor, c.fed)
	c.reports = &reportCoalescer{ctx: ctx, db: c.DB, dhcpd: c.DHCPd, disk: c.Frontend.Disk(),
		dir: c.dir, nextServer: c.baseURL, log: c.Syslog}
	c.remedy = &remediation{run: c.scope, events: c.events, log: c.Syslog, db: c.DB, pdu: c.PDU,
		pbs: c.PBS, floor: c.floor, dir: c.dir, facts: c.facts, reports: c.reports, relays: c.relays,
		frontendMAC: c.Frontend.MAC()}
	c.registerMetrics()
	c.startHTTP(privLn)

	// Install the frontend through its own services. A recovered database
	// already holds the frontend's row; rebind it to this life's MAC (the
	// allocator restarts from scratch, so it usually matches anyway) instead
	// of tripping the unique name index.
	fe := c.Frontend
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
		if err := c.facts.load(); err != nil {
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
		if err := c.fed.registerWithParent(c.baseURL); err != nil {
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
	return c.events.Recent(nodeFilter(c.DB, hostOrMAC))
}

// nodeFilter selects a node's events under both of its identities: the one
// given and, when a database row holds it, the other (its MAC for a
// hostname, its hostname for a MAC).
func nodeFilter(db *clusterdb.Database, hostOrMAC string) lifecycle.Filter {
	f := lifecycle.Filter{Node: hostOrMAC}
	if row, ok, err := clusterdb.NodeByName(db, hostOrMAC); err == nil && ok {
		f.Alias = row.MAC
	} else {
		f.Alias = hostname(db, hostOrMAC)
	}
	return f
}

// hostname names the node at mac from its database row (insert-ethers names
// a node before its first lease), or is the MAC itself when no row holds it.
func hostname(db *clusterdb.Database, mac string) string {
	if row, ok, err := clusterdb.NodeByMAC(db, mac); err == nil && ok {
		return row.Name
	}
	return mac
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
// boundary and reaps every context-started loop (the federation forwarder,
// the supervisor); then the report timer, the supervisor, the relay
// listeners and the HTTP server stop, so nothing new is served or armed,
// and the scope's goroutines drain. The database closes last.
// After Close returns, no cluster goroutine is left running.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.cancel()
		c.reports.stop()
		if sup := c.remedy.current(); sup != nil {
			sup.Stop()
		}
		c.relays.closeAll()
		// Close the server, not just the listener: accepted keep-alive
		// connections (an installer's pooled conns, a parent's fan-out client)
		// would otherwise keep answering after shutdown — a closed frontend must
		// go dark, not half-dark.
		c.httpSrv.Close()
		c.httpLn.Close()
		c.private.CloseIdleConnections()
		c.wg.Wait()
		// Last: a final snapshot bounds the next Open's replay. After wg.Wait
		// no cluster goroutine can still be writing.
		if err := c.DB.Close(); err != nil {
			c.Syslog.Log("frontend-0", "clusterdb", "closing database: %v", err)
		}
	})
}

// Recovery reports what the durable database recovered at startup: nil when
// the database was in-memory or the directory was fresh.
func (c *Cluster) Recovery() *clusterdb.RecoveryInfo { return c.recovery }
