package installer

import (
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/metrics"
)

// Stats aggregates install outcomes across every Run sharing one struct —
// the cluster passes the same *Stats to all installer launches, so the
// counters survive individual installs and node churn. All fields are
// atomics; a nil *Stats disables counting (every increment goes through
// the nil-safe helpers below).
type Stats struct {
	// FetchRetries counts automatic retry attempts spent across all HTTP
	// fetches (kickstart, listing, packages).
	FetchRetries atomic.Uint64
	// PackagesCorrupt counts fetched package bodies discarded after
	// failing digest verification.
	PackagesCorrupt atomic.Uint64
	// Complete / Failed / Aborted count terminal install outcomes, in the
	// same taxonomy as the install-complete/-failed/-aborted lifecycle
	// events.
	Complete atomic.Uint64
	Failed   atomic.Uint64
	Aborted  atomic.Uint64

	// Per-source accounting for the relay distribution tier: how many
	// verified package bodies (and bytes) came from peer relays vs the
	// frontend, and how many peers were demoted for serving corrupt or
	// failing responses. The peer-vs-frontend byte split is the headline
	// number: it is the traffic the frontend NIC did NOT carry.
	PeerFetches     atomic.Uint64
	FrontendFetches atomic.Uint64
	PeerBytes       atomic.Uint64
	FrontendBytes   atomic.Uint64
	PeerDemotions   atomic.Uint64

	// Latency distributions (the ROADMAP observability follow-on): the
	// time from one verified package of a stream to the next (the first is
	// timed from the request) and whole-install duration.
	// Created lazily so a zero Stats works; RegisterMetrics exposes them
	// as histogram families.
	histOnce       sync.Once
	FetchSeconds   *metrics.Histogram
	InstallSeconds *metrics.Histogram
}

// hists lazily creates the histogram instruments. Package fetches are
// sub-second in the live plane while installs run seconds to minutes; the
// default bucket ladder covers both.
func (s *Stats) hists() {
	s.histOnce.Do(func() {
		s.FetchSeconds = metrics.NewHistogram(nil)
		s.InstallSeconds = metrics.NewHistogram(nil)
	})
}

func (s *Stats) retry() {
	if s != nil {
		s.FetchRetries.Add(1)
	}
}

func (s *Stats) corrupt() {
	if s != nil {
		s.PackagesCorrupt.Add(1)
	}
}

func (s *Stats) demotePeer() {
	if s != nil {
		s.PeerDemotions.Add(1)
	}
}

// fetched records one verified package body by source kind, and how long
// after the stream's previous one (or its request) it was handed over.
func (s *Stats) fetched(kind string, bytes int64, d time.Duration) {
	if s == nil {
		return
	}
	if kind == SourcePeer {
		s.PeerFetches.Add(1)
		s.PeerBytes.Add(uint64(bytes))
	} else {
		s.FrontendFetches.Add(1)
		s.FrontendBytes.Add(uint64(bytes))
	}
	s.hists()
	s.FetchSeconds.Observe(d.Seconds())
}

// observeInstall records one completed install's wall-clock duration.
func (s *Stats) observeInstall(d time.Duration) {
	if s == nil {
		return
	}
	s.hists()
	s.InstallSeconds.Observe(d.Seconds())
}

// RegisterMetrics exposes the installer counters. The outcome and source
// vecs emit all their children even at zero, so a scrape can assert their
// presence before any install has finished.
func (s *Stats) RegisterMetrics(r *metrics.Registry) {
	s.hists()
	r.CounterFunc("rocks_installer_fetch_retries_total",
		"Automatic retry attempts spent on transient fetch failures.",
		func() float64 { return float64(s.FetchRetries.Load()) })
	r.CounterFunc("rocks_installer_packages_corrupt_total",
		"Package bodies discarded after failing digest verification.",
		func() float64 { return float64(s.PackagesCorrupt.Load()) })
	r.CounterVecFunc("rocks_installer_installs_total",
		"Terminal install outcomes.", []string{"outcome"},
		func() []metrics.Sample {
			return []metrics.Sample{
				{Labels: []string{"complete"}, Value: float64(s.Complete.Load())},
				{Labels: []string{"failed"}, Value: float64(s.Failed.Load())},
				{Labels: []string{"aborted"}, Value: float64(s.Aborted.Load())},
			}
		})
	r.CounterVecFunc("rocks_installer_fetch_source_total",
		"Verified package bodies fetched, by serving source.", []string{"source"},
		func() []metrics.Sample {
			return []metrics.Sample{
				{Labels: []string{"peer"}, Value: float64(s.PeerFetches.Load())},
				{Labels: []string{"frontend"}, Value: float64(s.FrontendFetches.Load())},
			}
		})
	r.CounterVecFunc("rocks_installer_fetch_bytes_total",
		"Verified package bytes fetched, by serving source — the peer-vs-frontend split.",
		[]string{"source"},
		func() []metrics.Sample {
			return []metrics.Sample{
				{Labels: []string{"peer"}, Value: float64(s.PeerBytes.Load())},
				{Labels: []string{"frontend"}, Value: float64(s.FrontendBytes.Load())},
			}
		})
	r.CounterFunc("rocks_installer_relay_demotions_total",
		"Peer relays dropped from an install's source set after corrupt or failing responses.",
		func() float64 { return float64(s.PeerDemotions.Load()) })
	r.RegisterHistogram("rocks_installer_fetch_seconds",
		"Seconds from one verified package of a stream to the next; the first from the request.", s.FetchSeconds)
	r.RegisterHistogram("rocks_installer_install_seconds",
		"Whole-install wall-clock duration in seconds, successful installs only.", s.InstallSeconds)
}
