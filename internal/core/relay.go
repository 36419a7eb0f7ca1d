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
	"rocks/internal/rpm"
)

// The relay distribution tier breaks the frontend-NIC bottleneck of mass
// reinstalls: a compute node that finishes installing re-serves its
// digest-verified package tree (dist.NewRepoServer) to peers, and the
// frontend's /v1/relays registry hands each new installer a prioritized
// source list. Peers are trustless — every body an installer accepts is
// verified against the frontend's manifest digests — so the registry needs
// no health checking beyond lifecycle bookkeeping: it registers a relay on
// install-complete and withdraws it the moment the node leaves the serving
// state (reinstall lease, dark, quarantine, decommission).

// maxRelaySources caps how many peers one installer is offered. A short
// list keeps the registry response tiny at 10k-node scale; rotation spreads
// successive installers across the live relay population.
const maxRelaySources = 8

// relayEntry is one live relay: a loopback HTTP listener serving the node's
// verified package tree at the same RPMS/manifest endpoints as the frontend.
type relayEntry struct {
	mac  string
	name string
	url  string
	rack int // the relay node's rack, -1 when unknown
	srv  *dist.Server
	ln   net.Listener
}

// relayRegistry tracks which nodes currently re-serve their install trees.
// It is fed by the lifecycle bus: the installer's install-complete promotes
// a node's accumulated package store to a serving relay, and lease/dark/
// quarantine events withdraw it. Bus subscription is lossy under extreme
// backlog; the failure mode is benign (a missed registration serves nothing,
// a missed withdrawal serves stale-but-digest-valid bodies until the next
// event), which is exactly why installers verify every body.
type relayRegistry struct {
	c *Cluster

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

// newRelayRegistry builds the registry and starts its bus-watching
// goroutine (tracked on the cluster's WaitGroup, reaped by ctx cancel).
func newRelayRegistry(c *Cluster) *relayRegistry {
	r := &relayRegistry{
		c:       c,
		pending: make(map[string]*rpm.Repository),
		live:    make(map[string]*relayEntry),
	}
	events, cancel := c.events.Subscribe(256)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		for {
			select {
			case e := <-events:
				r.observe(e)
			case <-c.ctx.Done():
				return
			}
		}
	}()
	return r
}

// expect records the store an in-flight install is accumulating verified
// packages into, keyed by the node's MAC. A reinstall overwrites the
// previous expectation with a fresh store.
func (r *relayRegistry) expect(mac string, store *rpm.Repository) {
	r.mu.Lock()
	r.pending[mac] = store
	r.mu.Unlock()
}

// observe reacts to one lifecycle event.
func (r *relayRegistry) observe(e lifecycle.Event) {
	switch e.Type {
	case lifecycle.EventInstallComplete:
		r.promote(e.MAC, e.Node)
	case lifecycle.EventLease:
		// The node is reinstalling: its tree is about to be wiped, so its
		// relay goes down before peers can be pointed at it again.
		r.withdraw(e.MAC, "reinstalling")
	case lifecycle.EventDark:
		r.withdraw(firstNonEmpty(e.MAC, e.Node), "went dark")
	case lifecycle.EventQuarantine:
		r.withdraw(firstNonEmpty(e.MAC, e.Node), "quarantined")
	}
}

// promote turns a completed install's package store into a serving relay on
// its own loopback listener. A node with no pending store (the frontend, or
// a relay-disabled install) is ignored.
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.c.Syslog.Log("frontend-0", "relay", "cannot start relay for %s: %v", name, err)
		return
	}
	entry := &relayEntry{
		mac:  mac,
		name: name,
		url:  "http://" + ln.Addr().String(),
		rack: r.rackOf(mac),
		srv:  dist.NewRepoServer(store),
		ln:   ln,
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return
	}
	if old, ok := r.live[mac]; ok {
		// A relay survived a reinstall's withdrawal (lost event): replace it.
		r.retire(old)
	}
	r.live[mac] = entry
	r.mu.Unlock()
	httpSrv := &http.Server{Handler: entry.srv}
	r.c.wg.Add(1)
	go func() {
		defer r.c.wg.Done()
		if err := httpSrv.Serve(ln); err != nil &&
			!errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			r.c.Syslog.Log("frontend-0", "relay", "relay %s serve: %v", name, err)
		}
	}()
	r.started.Add(1)
	r.c.events.Publish(lifecycle.Event{
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
	r.c.events.Publish(lifecycle.Event{
		Node: entry.name, MAC: entry.mac, Phase: lifecycle.PhaseRun,
		Type: lifecycle.EventRelayDown, Source: "relay", Detail: reason,
	})
}

// retire (mu held) closes a relay's listener and folds its serve counters
// into the cumulative retired totals so /metrics never goes backwards.
func (r *relayRegistry) retire(e *relayEntry) {
	e.ln.Close()
	stats := e.srv.Stats()
	r.retiredBytes.Add(stats.PackageBytes)
	r.retiredReqs.Add(stats.PackageRequests)
	r.withdrawn.Add(1)
}

// rackOf resolves a relay node's rack from the cluster database; -1 when
// the node is unknown (topology stays the registry's concern — installers
// never learn rack numbers, they just receive a better-ordered list).
func (r *relayRegistry) rackOf(mac string) int {
	n, ok, err := clusterdb.NodeByMAC(r.c.DB, mac)
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
		near := make([]*relayEntry, 0, n)
		far := make([]*relayEntry, 0, n)
		for _, e := range rotated {
			if e.rack == rack {
				near = append(near, e)
			} else {
				far = append(far, e)
			}
		}
		rotated = append(near, far...)
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

// closeAll shuts every relay listener down and refuses later promotions;
// called from Cluster.Close before the WaitGroup drain.
func (r *relayRegistry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for mac, e := range r.live {
		e.ln.Close()
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

// opRelays serves the relay registry (read-only). With relays disabled the
// endpoint exists and returns an empty list, so installers and scrapers
// never depend on configuration for the surface's presence. The asker's
// rack comes from its mac parameter (installers send their own MAC) via
// the nodes table, or an explicit rack parameter; without either the list
// is rack-blind, exactly as before.
func (c *Cluster) opRelays(r *http.Request) (interface{}, *apiError) {
	resp := RelaysResponse{Sources: []installer.Source{}}
	if c.relays != nil {
		rack := -1
		if mac := r.FormValue("mac"); mac != "" {
			rack = c.relays.rackOf(mac)
		} else if r.FormValue("rack") != "" {
			n, aerr := formInt(r, "rack", -1, 0)
			if aerr != nil {
				return nil, aerr
			}
			rack = n
		}
		if srcs := c.relays.sources(rack); srcs != nil {
			resp.Sources = srcs
		}
		resp.Live = c.relays.liveCount()
	}
	return resp, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
