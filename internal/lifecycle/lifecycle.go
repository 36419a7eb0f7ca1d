// Package lifecycle is the cluster's event spine: a typed, subscribable
// node-event bus that every management layer publishes into. Rocks treats
// full reinstallation as the basic management primitive (§1, §6.4), which
// makes the interesting state of the system the *lifecycle* of each node —
// discovered → leased → installing → up → dark → power-cycled → recovered —
// rather than any single component's private log. The bus gives that
// lifecycle one vocabulary (Event), one bounded store (the ring), and two
// consumption styles: subscription fan-out for reactive components (the
// supervisor) and per-node timeline queries for humans (/v1/events).
package lifecycle

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Phase groups event types by which management layer owns that part of a
// node's life. A node's timeline typically walks discover → install → run,
// with remediate interleaved whenever the supervisor intervenes.
type Phase string

const (
	PhaseDiscover  Phase = "discover"  // insert-ethers: MAC seen, name bound
	PhaseInstall   Phase = "install"   // installer: lease through post-scripts
	PhaseRun       Phase = "run"       // steady state: up/dark transitions
	PhaseRemediate Phase = "remediate" // supervisor/PDU: cycles, quarantine
)

// EventType identifies what happened. The constants cover every producer:
// insert-ethers (discover), the installer (install), the monitor and cluster
// (run), and the supervisor/PDU (remediate).
type EventType string

const (
	// Discovery (insert-ethers).
	EventDiscovered EventType = "discovered" // unknown MAC appeared on the bus
	EventBound      EventType = "bound"      // name + IP assigned, DB row inserted
	EventReplaced   EventType = "replaced"   // existing name rebound to a new MAC

	// Installation (installer), in §6.1 order.
	EventLease     EventType = "lease"     // DHCP lease acquired
	EventKickstart EventType = "kickstart" // kickstart file fetched
	EventPartition EventType = "partition" // disk partitioned + formatted
	EventPackages  EventType = "packages"  // package installation finished
	EventPost      EventType = "post"      // %post scripts ran
	// EventPackageCorrupt reports a fetched package body that failed digest
	// verification against the distribution manifest; the installer
	// discards the body and retries, so a corrupt package never lands on
	// the node's disk.
	EventPackageCorrupt  EventType = "package-corrupt"
	EventInstallComplete EventType = "install-complete"
	EventInstallFailed   EventType = "install-failed"
	EventInstallAborted  EventType = "install-aborted" // cancelled via context

	// Steady state (monitor, cluster).
	EventUp   EventType = "up"   // node joined service
	EventDark EventType = "dark" // monitor lost the node

	// Remediation (supervisor, PDU).
	EventPowerCycle       EventType = "power-cycle"        // supervisor decision
	EventPowerCycled      EventType = "power-cycled"       // PDU relay actually fired
	EventPowerCycleFailed EventType = "power-cycle-failed" // PDU refused/wedged
	EventQuarantine       EventType = "quarantine"
	EventUnquarantine     EventType = "unquarantine"
	EventRecovered        EventType = "recovered"

	// Frontend durability (clusterdb): the cluster database was recovered
	// from its on-disk snapshot + write-ahead log at startup.
	EventDBRecovered EventType = "db-recovered"

	// Facts-driven inventory (the post-install agent loop). A node that
	// finishes installing probes its own hardware and posts the facts to the
	// frontend; the frontend records the report, diffs it against the
	// database's expected profile, and publishes one drift-detected event per
	// divergent field. Actionable drift is cleared by a supervisor-driven
	// reinstall (drift-reinstall); a clean report after drift publishes
	// drift-cleared. facts-failed marks an agent that could not deliver its
	// report (the install itself still succeeded).
	EventFactsReported  EventType = "facts-reported"
	EventFactsFailed    EventType = "facts-failed"
	EventDriftDetected  EventType = "drift-detected"
	EventDriftCleared   EventType = "drift-cleared"
	EventDriftReinstall EventType = "drift-reinstall"

	// Relay distribution tier (PR 8). A completed node that re-serves its
	// verified package tree announces relay-up; the registry withdraws it
	// (relay-down) when the node reinstalls, goes dark, or is quarantined.
	// An installer that catches a relay serving corrupt or failing
	// responses emits relay-demoted with the source URL, making the
	// demotion auditable in /v1/events.
	EventRelayUp      EventType = "relay-up"
	EventRelayDown    EventType = "relay-down"
	EventRelayDemoted EventType = "relay-demoted"
)

// Event is one step in a node's lifecycle. Node is the best identity known
// at emission time — a hostname once one is bound, the MAC before that — and
// MAC is always the hardware address when the producer knows it, so queries
// can follow a machine across renames.
type Event struct {
	Seq     uint64    `json:"seq"`  // bus-global, monotonically increasing from 1
	Time    time.Time `json:"time"` //
	Node    string    `json:"node"` // hostname, or MAC when no name is bound yet
	MAC     string    `json:"mac,omitempty"`
	Phase   Phase     `json:"phase"`
	Type    EventType `json:"type"`
	Source  string    `json:"source"`            // producing layer: installer, monitor, supervisor, insert-ethers, pdu, cluster
	Attempt int       `json:"attempt,omitempty"` // remediation attempt number, when meaningful
	Detail  string    `json:"detail,omitempty"`
	// Shard is federation provenance: the child frontend whose bus
	// originated the event. Empty on a standalone frontend and on a
	// child's own view of its events — only a parent merging shard
	// results stamps it, so a timeline read at the child and the same
	// timeline read at the top differ in nothing but this field.
	Shard string `json:"shard,omitempty"`
}

// String formats an event the way the supervisor log used to: terse,
// grep-able, one line.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s %s/%s %s", e.Seq, e.Node, e.Phase, e.Type, e.Source)
	if e.Attempt > 0 {
		s += fmt.Sprintf(" attempt=%d", e.Attempt)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Filter selects events. Zero fields match everything. Node matches either
// the event's Node or its MAC, so a timeline query follows a machine from
// pre-name discovery through its bound hostname. Alias is the same node's
// other identity (the MAC of a hostname, the hostname of a MAC) when the
// caller knows it: an event passes the Node test under either, so events
// that carry only one of the two still land on the one timeline.
type Filter struct {
	Node     string
	Alias    string
	MAC      string
	Type     EventType
	Phase    Phase
	Source   string
	SinceSeq uint64 // only events with Seq > SinceSeq
	Limit    int    // 0 = unlimited; otherwise the most recent N matches
}

// Matches reports whether e passes every field test of f (Limit is the
// query's business, not the predicate's). It is the only place event fields
// are compared to a filter: the bus, a parent's mirror of a dark child and
// /v1/events all select through it.
func (f Filter) Matches(e *Event) bool {
	if f.Node != "" && e.Node != f.Node && e.MAC != f.Node &&
		(f.Alias == "" || (e.Node != f.Alias && e.MAC != f.Alias)) {
		return false
	}
	if f.MAC != "" && e.MAC != f.MAC {
		return false
	}
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if f.Phase != "" && e.Phase != f.Phase {
		return false
	}
	if f.Source != "" && e.Source != f.Source {
		return false
	}
	return e.Seq > f.SinceSeq
}

// DefaultRingSize bounds the bus when the caller doesn't choose: large
// enough to hold a full integration burst plus a chaos storm, small enough
// that a week of steady-state up/dark flapping can't grow the heap.
const DefaultRingSize = 4096

type subscriber struct {
	ch      chan Event
	dropped uint64
}

// Bus is a bounded, fan-out event log. Publishing never blocks: the ring
// evicts its oldest entry when full (counted in Evicted), and a subscriber
// that falls behind loses events (counted per subscription) rather than
// stalling the producers — the installer must not wait on a slow reader.
type Bus struct {
	mu   sync.Mutex
	ring Ring[Event]
	seq  uint64

	subs   map[int]*subscriber
	nextID int

	// bcast is closed and replaced on every publish; WaitFor sleeps on it
	// instead of holding a subscription, so it can never miss an event
	// between its ring scan and its wait (it re-scans after every wake).
	bcast chan struct{}
}

// NewBus creates a bus whose ring holds at most size events
// (DefaultRingSize when size <= 0).
func NewBus(size int) *Bus {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Bus{
		ring:  NewRing[Event](size),
		subs:  make(map[int]*subscriber),
		bcast: make(chan struct{}),
	}
}

// Publish assigns the event a sequence number (and timestamp, when unset),
// appends it to the ring, and fans it out. It returns the stamped event.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.ring.Push(e)
	for _, s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped++
		}
	}
	close(b.bcast)
	b.bcast = make(chan struct{})
	b.mu.Unlock()
	return e
}

// Subscribe returns a channel receiving every event published after the
// call, buffered to buf entries (minimum 1). A subscriber that falls behind
// its buffer silently loses events — use WaitFor when a guaranteed
// observation matters. cancel releases the subscription; the channel is
// never closed, so a drained reader simply stops receiving.
func (b *Bus) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 1
	}
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	s := &subscriber{ch: make(chan Event, buf)}
	b.subs[id] = s
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
	return s.ch, cancel
}

// Recent returns the matching events still in the ring, oldest first. With
// f.Limit set, only the most recent matches are returned.
func (b *Bus) Recent(f Filter) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Select(f.Limit, f.Matches)
}

// Recency is when an identity was last heard from: the sequence number and
// time of its newest event still in the ring.
type Recency struct {
	Seq  uint64
	Time time.Time
}

// LastEvents indexes the recency of every identity the ring still holds an
// event for — every hostname and every MAC — in one pass from the newest
// event back, reading the ring in place.
func (b *Bus) LastEvents() map[string]Recency {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := make(map[string]Recency, b.ring.Len())
	for i := b.ring.Len() - 1; i >= 0; i-- {
		e := b.ring.At(i)
		for _, id := range [2]string{e.Node, e.MAC} {
			if _, seen := idx[id]; id != "" && !seen {
				idx[id] = Recency{e.Seq, e.Time}
			}
		}
	}
	return idx
}

// Timeline is a node's per-node lifecycle view: every ring event whose Node
// or MAC matches, oldest first.
func (b *Bus) Timeline(node string) []Event {
	return b.Recent(Filter{Node: node})
}

// WaitFor blocks until an event matching f exists (checking the ring first,
// so events published before the call still satisfy it as long as their Seq
// exceeds f.SinceSeq) or ctx is done. Set f.SinceSeq from Seq() to wait for
// a strictly future occurrence. When no event held matches and one after
// f.SinceSeq has already left the ring, it fails at once, naming the
// eviction: the match may have been evicted, and waiting could not tell.
func (b *Bus) WaitFor(ctx context.Context, f Filter) (Event, error) {
	for {
		b.mu.Lock()
		for i := 0; i < b.ring.Len(); i++ {
			if e := b.ring.At(i); f.Matches(e) {
				found := *e
				b.mu.Unlock()
				return found, nil
			}
		}
		if b.ring.Len() > 0 && b.ring.At(0).Seq > f.SinceSeq+1 {
			oldest := b.ring.At(0).Seq
			b.mu.Unlock()
			return Event{}, fmt.Errorf("lifecycle: events #%d to #%d, after #%d, were evicted from the ring before a match was seen", f.SinceSeq+1, oldest-1, f.SinceSeq)
		}
		wake := b.bcast
		b.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
}

// Seq returns the sequence number of the most recently published event
// (0 when none have been).
func (b *Bus) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Evicted counts events pushed out of the ring by newer ones — the
// /v1/supervisor "dropped" figure.
func (b *Bus) Evicted() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Evicted()
}

// SubscriberDrops sums events lost across all current subscribers' buffers.
func (b *Bus) SubscriberDrops() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, s := range b.subs {
		n += s.dropped
	}
	return n
}
