// Package faults is a deterministic, seeded fault-injection layer for the
// cluster's service seams. The CERN and Brookhaven large-cluster reports
// (PAPERS.md) agree that at thousand-node scale transient failures —
// dropped DHCP offers, truncated package downloads, power controllers that
// ignore a cycle command — are the steady state, not the exception. The
// paper's remediation loop ends at a human; to close it mechanically (the
// core supervisor) we first need a way to manufacture those failures on
// demand, reproducibly, and to account for every one injected.
//
// An Injector owns a seeded PRNG and a rule table. Each service seam asks
// it one question — "should this event fail, and how?" — identified by an
// operation (Op) and the identities of the host involved (MAC, hostname,
// IP; whichever the seam knows). Rules select events by operation and a
// glob-lite host matcher, fire with a configured probability, and can be
// capped by count so a storm eventually dries up and the system under test
// can prove it converges. Every injection is recorded with a sequence
// number so tests can reconcile the supervisor's remediation log against
// exactly what was done to the cluster.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Op names an injectable seam.
type Op string

// The seams the cluster wires up.
const (
	// OpDHCPOffer drops an affirmative DHCP reply (OFFER or ACK) on the
	// broadcast bus — the node's DISCOVER goes unanswered.
	OpDHCPOffer Op = "dhcp.offer"
	// OpHTTPKickstart corrupts a kickstart CGI fetch.
	OpHTTPKickstart Op = "http.kickstart"
	// OpHTTPPackage corrupts a distribution fetch (manifest, listing, one
	// RPM, or an install's whole package stream — an install puts two
	// requests on this seam, its manifest and its stream) — from the
	// frontend or from a peer relay; the seam is the fetching node's client,
	// so package-fault rules hit both.
	OpHTTPPackage Op = "http.package"
	// OpHTTPRelays corrupts a /v1/relays registry fetch. Kept distinct
	// from OpHTTPPackage so package-corruption campaigns don't silently
	// burn injections on the best-effort registry lookup.
	OpHTTPRelays Op = "http.relays"
	// OpHTTPFacts corrupts the agent's facts POST in transit (distinct from
	// OpFactsReport, which skews the content; and from OpHTTPPackage, so
	// package campaigns don't burn injections on the post-install report).
	OpHTTPFacts Op = "http.facts"
	// OpPowerCycle makes a PDU hard-cycle command fail silently: the relay
	// clicks, nothing happens, the node stays dark.
	OpPowerCycle Op = "power.cycle"
	// OpInstallWedge wedges a node mid-install: the installer dies between
	// partitioning and package installation, leaving the node crashed.
	OpInstallWedge Op = "install.wedge"
	// OpFactsReport perturbs the hardware facts a node's first-boot agent
	// reports — the agent's probe misreads the machine (flaky DMI tables,
	// a half-seated NIC) while the machine itself is fine. The skew is
	// deterministic, so a chaos test can reconcile every drift event the
	// frontend publishes against this injector's ledger.
	OpFactsReport Op = "facts.report"
)

// Mode refines how an HTTP fault manifests.
type Mode string

// HTTP failure modes. Non-HTTP ops ignore the mode.
const (
	// ModeError500 answers with HTTP 500 instead of performing the request.
	ModeError500 Mode = "error500"
	// ModeTruncate performs the request but cuts the body short.
	ModeTruncate Mode = "truncate"
	// ModeCorrupt performs the request but flips one bit in the middle of
	// the body, preserving its length — the silent corruption (bad NIC, bad
	// disk, bad switch) that only content digests can catch. Unlike
	// ModeTruncate the transfer looks completely successful.
	ModeCorrupt Mode = "corrupt"
	// ModeLatency delays the request by the rule's Latency, then lets it
	// proceed untouched. The fault still appears in the injection log.
	ModeLatency Mode = "latency"
	// ModeFactsSkew (OpFactsReport only) misreports actionable fields — the
	// architecture and the disk — plus a within-tolerance memory wobble that
	// drift detection must classify as benign. See FactsHook.
	ModeFactsSkew Mode = "facts-skew"
)

// Rule selects events to fail.
type Rule struct {
	// Op is the seam this rule applies to (required).
	Op Op
	// Hosts matches the event's host identities: "" or "*" match
	// everything; "prefix*" matches any identity with the prefix; anything
	// else must equal one identity exactly (a MAC, hostname, or IP).
	Hosts string
	// Prob is the chance an eligible event fails, in [0,1]. Zero means 1.0
	// — a rule with no probability always fires — so the common "fail the
	// next N" rule needs only Op+Count.
	Prob float64
	// Count caps how many times the rule fires; 0 is unlimited.
	Count int
	// Mode is the HTTP failure mode; defaults to ModeError500.
	Mode Mode
	// Latency is the delay for ModeLatency.
	Latency time.Duration
}

// Injection is one recorded fault.
type Injection struct {
	Seq  int
	Op   Op
	Host string // the first matched identity
	Mode Mode
}

// String renders the injection for logs.
func (i Injection) String() string {
	return fmt.Sprintf("#%d %s on %s (%s)", i.Seq, i.Op, i.Host, i.Mode)
}

type rule struct {
	Rule
	fired int
}

// Injector decides, deterministically for a given seed and event sequence,
// which events fail. It is safe for concurrent use; under concurrency the
// interleaving of PRNG draws follows goroutine scheduling, so tests that
// need an exact fault sequence must drive it from one goroutine, while
// chaos tests assert on the injection *log* instead.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*rule
	log   []Injection
}

// NewInjector creates an injector with the given seed and initial rules.
func NewInjector(seed int64, rules ...Rule) *Injector {
	inj := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		inj.AddRule(r)
	}
	return inj
}

// AddRule appends a rule; chaos tests add host-targeted rules once MACs are
// known.
func (inj *Injector) AddRule(r Rule) {
	if r.Mode == "" {
		r.Mode = ModeError500
	}
	if r.Prob <= 0 || r.Prob > 1 {
		r.Prob = 1
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules = append(inj.rules, &rule{Rule: r})
}

// matchHost applies the glob-lite matcher to one identity.
func matchHost(pattern, identity string) bool {
	if pattern == "" || pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(identity, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == identity
}

// ShouldInject reports whether an event at the given seam, involving a host
// known by the given identities, should fail — and in which mode. A firing
// is recorded in the injection log. The first rule that matches and fires
// wins; rules are consulted in the order they were added.
func (inj *Injector) ShouldInject(op Op, identities ...string) (Rule, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Op != op {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		host, matched := "", false
		for _, id := range identities {
			if id != "" && matchHost(r.Hosts, id) {
				host, matched = id, true
				break
			}
		}
		if !matched {
			continue
		}
		// Draw even for prob 1.0 so adding a probability to a rule does not
		// shift the draw sequence of later rules.
		if draw := inj.rng.Float64(); draw >= r.Prob {
			continue
		}
		r.fired++
		rec := Injection{Seq: len(inj.log) + 1, Op: op, Host: host, Mode: r.Mode}
		inj.log = append(inj.log, rec)
		return r.Rule, true
	}
	return Rule{}, false
}

// Injected returns a copy of the injection log in firing order.
func (inj *Injector) Injected() []Injection {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Injection(nil), inj.log...)
}

// CountOp reports how many injections fired for one seam.
func (inj *Injector) CountOp(op Op) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for _, rec := range inj.log {
		if rec.Op == op {
			n++
		}
	}
	return n
}

// Exhausted reports whether every count-capped rule has fired out. Rules
// without a cap never exhaust.
func (inj *Injector) Exhausted() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Count == 0 || r.fired < r.Count {
			return false
		}
	}
	return true
}
