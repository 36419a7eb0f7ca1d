package core

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/installer"
	"rocks/internal/lifecycle"
	"rocks/internal/memnet"
	"rocks/internal/metrics"
	"rocks/internal/rpm"
	"rocks/internal/syslogd"
)

// The relay distribution tier breaks the frontend-NIC bottleneck of mass
// reinstalls: a compute node that finishes installing re-serves its
// digest-verified package tree (dist.NewRepoServer) to peers, and the
// frontend's /v1/relays registry hands each new installer a prioritized
// source list. Peers are trustless — every body an installer accepts is
// verified against the frontend's manifest digests — so the registry needs
// no health checking beyond bookkeeping. The code that changes a node's
// serving state calls it: a completed install promotes the node, and an
// install starting, the supervisor finding it dark, quarantine and
// decommission withdraw it.

// maxRelaySources caps how many peers one installer is offered. A short
// list keeps the registry response tiny at 10k-node scale; rotation spreads
// successive installers across the live relay population.
const maxRelaySources = 8

// relayEntry is one live relay: an HTTP server on the private network
// serving the node's verified package tree at the same RPMS/manifest
// endpoints as the frontend.
type relayEntry struct {
	mac     string
	name    string
	url     string
	rack    int // the relay node's rack, -1 when unknown
	srv     *dist.Server
	httpSrv *http.Server
}

// relayRegistry tracks which nodes currently re-serve their install trees.
// It announces relay-up and relay-down on the lifecycle bus and reads
// nothing from it.
type relayRegistry struct {
	run     scope
	db      *clusterdb.Database
	events  *lifecycle.Bus
	log     *syslogd.Collector
	private *memnet.Network // relays listen here; installers dial it

	mu      sync.Mutex
	closed  bool
	pending map[string]*rpm.Repository // MAC → store of an install in flight
	live    map[string]*relayEntry     // MAC → serving relay
	rotor   int

	started      atomic.Uint64
	withdrawn    atomic.Uint64
	retiredBytes atomic.Int64  // package bytes served by since-withdrawn relays
	retiredReqs  atomic.Uint64 // package requests answered by since-withdrawn relays
	sameRack     atomic.Uint64 // sources handed out inside the asker's rack
	crossRack    atomic.Uint64 // sources handed out across rack boundaries
}

// newRelayRegistry builds the registry. It exists whether or not relays are
// enabled; with them off no install expects a store, so it serves nothing.
func newRelayRegistry(run scope, db *clusterdb.Database, events *lifecycle.Bus, log *syslogd.Collector, private *memnet.Network) *relayRegistry {
	return &relayRegistry{
		run: run, db: db, events: events, log: log, private: private,
		pending: make(map[string]*rpm.Repository),
		live:    make(map[string]*relayEntry),
	}
}

// expect records the store an in-flight install is accumulating verified
// packages into, keyed by the node's MAC. The node's live relay, if any, is
// withdrawn first: its tree is about to be wiped, so peers are never
// pointed at it again. A reinstall overwrites the previous expectation with
// a fresh store.
func (r *relayRegistry) expect(mac string, store *rpm.Repository) {
	r.withdraw(mac, "reinstalling")
	r.mu.Lock()
	r.pending[mac] = store
	r.mu.Unlock()
}

// promote turns a completed install's package store into a serving relay on
// its own listener on the private network. A node with no pending store
// (the frontend, or a relay-disabled install) is ignored.
func (r *relayRegistry) promote(mac, name string) {
	r.mu.Lock()
	store, ok := r.pending[mac]
	if !ok || r.closed {
		r.mu.Unlock()
		return
	}
	delete(r.pending, mac)
	r.mu.Unlock()
	if len(store.All()) == 0 {
		return
	}
	ln, err := r.private.Listen("127.0.0.1:0")
	if err != nil {
		r.log.Log("frontend-0", "relay", "cannot start relay for %s: %v", name, err)
		return
	}
	srv := dist.NewRepoServer(store)
	entry := &relayEntry{
		mac:     mac,
		name:    name,
		url:     "http://" + ln.Addr().String(),
		rack:    r.rackOf(mac),
		srv:     srv,
		httpSrv: &http.Server{Handler: srv},
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return
	}
	if old, ok := r.live[mac]; ok {
		// Two boots of one machine raced to promote it: keep the newer.
		r.retire(old)
	}
	r.live[mac] = entry
	r.mu.Unlock()
	r.run.spawn(func() {
		if err := entry.httpSrv.Serve(ln); err != nil &&
			!errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			r.log.Log("frontend-0", "relay", "relay %s serve: %v", name, err)
		}
	})
	r.started.Add(1)
	r.events.Publish(lifecycle.Event{
		Node: name, MAC: mac, Phase: lifecycle.PhaseRun,
		Type: lifecycle.EventRelayUp, Source: "relay",
		Detail: fmt.Sprintf("serving %d packages at %s", len(store.All()), entry.url),
	})
}

// withdraw takes a relay out of rotation, matching by MAC or hostname.
func (r *relayRegistry) withdraw(id, reason string) {
	if id == "" {
		return
	}
	r.mu.Lock()
	var entry *relayEntry
	for mac, e := range r.live {
		if e.mac == id || e.name == id {
			entry = e
			delete(r.live, mac)
			break
		}
	}
	if entry != nil {
		r.retire(entry)
	}
	r.mu.Unlock()
	if entry == nil {
		return
	}
	r.events.Publish(lifecycle.Event{
		Node: entry.name, MAC: entry.mac, Phase: lifecycle.PhaseRun,
		Type: lifecycle.EventRelayDown, Source: "relay", Detail: reason,
	})
}

// retire (mu held) closes a relay's server, its listener and every
// connection to it, so a withdrawn relay serves no pooled keep-alive
// client, and folds its serve counters into the cumulative retired totals
// so /metrics never goes backwards.
func (r *relayRegistry) retire(e *relayEntry) {
	e.httpSrv.Close()
	stats := e.srv.Stats()
	r.retiredBytes.Add(stats.PackageBytes)
	r.retiredReqs.Add(stats.PackageRequests)
	r.withdrawn.Add(1)
}

// rackOf resolves a relay node's rack from the cluster database; -1 when
// the node is unknown (topology stays the registry's concern — installers
// never learn rack numbers, they just receive a better-ordered list).
func (r *relayRegistry) rackOf(mac string) int {
	n, ok, err := clusterdb.NodeByMAC(r.db, mac)
	if err != nil || !ok {
		return -1
	}
	return n.Rack
}

// sources returns the prioritized peer list one installer should try,
// rotated per call so concurrent installers fan out across the relay
// population instead of stampeding the first entry. rack, when >= 0, is
// the asker's rack: same-rack relays are stably moved to the front of the
// rotated list, keeping mass-reinstall traffic inside rack switches; a
// rack with no live relay falls back to cross-rack peers, counted on
// rocks_dist_relay_cross_rack_total.
func (r *relayRegistry) sources(rack int) []installer.Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.live) == 0 {
		return nil
	}
	entries := make([]*relayEntry, 0, len(r.live))
	for _, e := range r.live {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	n := len(entries)
	start := r.rotor % n
	r.rotor++
	rotated := make([]*relayEntry, 0, n)
	for i := 0; i < n; i++ {
		rotated = append(rotated, entries[(start+i)%n])
	}
	if rack >= 0 {
		// Stable partition: same-rack first, rotation order preserved
		// within each class.
		sort.SliceStable(rotated, func(i, j int) bool { return rotated[i].rack == rack && rotated[j].rack != rack })
	}
	count := min(n, maxRelaySources)
	out := make([]installer.Source, 0, count)
	for _, e := range rotated[:count] {
		if rack >= 0 {
			if e.rack == rack {
				r.sameRack.Add(1)
			} else {
				r.crossRack.Add(1)
			}
		}
		out = append(out, installer.Source{URL: e.url, Kind: installer.SourcePeer, Node: e.name})
	}
	return out
}

// liveCount reports how many relays are currently serving.
func (r *relayRegistry) liveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// serveTotals sums package-serving traffic across live and retired relays —
// the bytes the frontend NIC did not have to carry.
func (r *relayRegistry) serveTotals() (requests uint64, bytes int64) {
	r.mu.Lock()
	for _, e := range r.live {
		s := e.srv.Stats()
		requests += s.PackageRequests
		bytes += s.PackageBytes
	}
	r.mu.Unlock()
	return requests + r.retiredReqs.Load(), bytes + r.retiredBytes.Load()
}

// closeAll shuts every relay server down and refuses later promotions;
// called from Cluster.Close before the WaitGroup drain.
func (r *relayRegistry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for mac, e := range r.live {
		e.httpSrv.Close()
		delete(r.live, mac)
	}
}

// RelaysResponse is the /v1/relays payload: the rotated peer source list an
// installer should try in order (the frontend itself is always the
// installer-side fallback and is not listed), plus the live-relay count.
type RelaysResponse struct {
	Sources []installer.Source `json:"sources"`
	Live    int                `json:"live"`
}

// endpoint serves the registry (read-only). With relays disabled it exists
// and returns an empty list, so installers and scrapers never depend on
// configuration for the surface's presence. The asker's rack comes from its
// mac parameter (installers send their own MAC) via the nodes table, or an
// explicit rack parameter; without either the list is rack-blind.
func (r *relayRegistry) endpoint() endpoint {
	return endpoint{name: "relays", run: func(req *http.Request) (interface{}, *apiError) {
		rack := -1
		if mac := req.FormValue("mac"); mac != "" {
			rack = r.rackOf(mac)
		} else if req.FormValue("rack") != "" {
			n, aerr := formInt(req, "rack", -1, 0)
			if aerr != nil {
				return nil, aerr
			}
			rack = n
		}
		resp := RelaysResponse{Sources: r.sources(rack), Live: r.liveCount()}
		if resp.Sources == nil {
			resp.Sources = []installer.Source{}
		}
		return resp, nil
	}}
}

// registerMetrics exposes the relay tier. Relay serve traffic is the load
// the frontend NIC did not carry — compare
// rocks_dist_relay_package_bytes_total against rocks_dist_package_bytes_total
// for the offload ratio.
func (r *relayRegistry) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("rocks_dist_relays",
		"Completed nodes currently re-serving their verified package trees.",
		func() float64 { return float64(r.liveCount()) })
	reg.CounterFunc("rocks_dist_relays_started_total",
		"Relays promoted after install-complete.",
		func() float64 { return float64(r.started.Load()) })
	reg.CounterFunc("rocks_dist_relays_withdrawn_total",
		"Relays withdrawn on reinstall, dark, quarantine, or decommission.",
		func() float64 { return float64(r.withdrawn.Load()) })
	reg.CounterFunc("rocks_dist_relay_package_requests_total",
		"Package bodies served by peer relays, live and retired.",
		func() float64 { reqs, _ := r.serveTotals(); return float64(reqs) })
	reg.CounterFunc("rocks_dist_relay_package_bytes_total",
		"Package body bytes served by peer relays, live and retired.",
		func() float64 { _, bytes := r.serveTotals(); return float64(bytes) })
	reg.CounterFunc("rocks_dist_relay_same_rack_total",
		"Relay sources handed to installers in the installer's own rack.",
		func() float64 { return float64(r.sameRack.Load()) })
	reg.CounterFunc("rocks_dist_relay_cross_rack_total",
		"Relay sources handed out across rack boundaries (no same-rack peer).",
		func() float64 { return float64(r.crossRack.Load()) })
}
