package core

import "rocks/internal/clusterdb"

// registerMetrics fills the cluster's metrics registry — the /metrics
// surface — with every layer's counters: the figures that used to live only
// in the bespoke JSON of /v1/dbstats, /v1/diststats, /v1/supervisor, and
// /v1/events, plus the node-population and control-plane gauges. Each
// subsystem registers its own families; everything is a collector func
// sampling live state at scrape time, so the registry costs the instrumented
// paths nothing.
func (c *Cluster) registerMetrics() {
	r := c.metricsReg
	c.DB.RegisterMetrics(r)
	c.ksCache.RegisterMetrics(r)
	c.distSrv.RegisterMetrics(r)
	c.events.RegisterMetrics(r)
	c.installStats.RegisterMetrics(r)
	c.floor.registerMetrics(r)
	c.dir.registerMetrics(r)
	c.relays.registerMetrics(r)
	c.reports.registerMetrics(r)
	c.remedy.registerMetrics(r)
	c.fed.registerMetrics(r)
	c.facts.registerMetrics(r)
	c.audit.registerMetrics(r)

	// The last parent mirror pass (zero without a parent): a finished pass's
	// report, so gauges.
	r.GaugeFunc("rocks_dist_mirror_packages_listed",
		"Packages the parent distribution advertised (last mirror pass).",
		func() float64 { return float64(c.mirror.Load().Listed) })
	r.GaugeFunc("rocks_dist_mirror_packages_skipped",
		"Packages reused from the baseline by digest match (no body fetched).",
		func() float64 { return float64(c.mirror.Load().Skipped) })
	r.GaugeFunc("rocks_dist_mirror_packages_fetched",
		"Package bodies transferred from the parent.",
		func() float64 { return float64(c.mirror.Load().Fetched) })
	r.GaugeFunc("rocks_dist_mirror_bytes_fetched",
		"Bytes of package bodies transferred from the parent.",
		func() float64 { return float64(c.mirror.Load().FetchedBytes) })
	r.GaugeFunc("rocks_dist_mirror_corrupt_bodies",
		"Fetched bodies discarded after failing their manifest digest.",
		func() float64 { return float64(c.mirror.Load().CorruptBodies) })

	// Startup recovery (what Open found; zero for fresh/in-memory lives).
	var rec clusterdb.RecoveryInfo
	if c.recovery != nil {
		rec = *c.recovery
	}
	r.GaugeFunc("rocks_db_recovery_records_replayed",
		"Log records applied during this life's startup recovery.",
		func() float64 { return float64(rec.Replayed) })
	r.GaugeFunc("rocks_db_recovery_replay_errors",
		"Replayed records that failed during this life's startup recovery.",
		func() float64 { return float64(rec.ReplayErrors) })

	// Kickstart CGI latency — the frontend-side cost a §6.1 reinstall
	// storm concentrates. Default buckets; the storm benchmark asserts on
	// the _count series.
	c.cgiSeconds = r.Histogram("rocks_kickstart_cgi_seconds",
		"Wall-clock seconds spent serving one kickstart.cgi request.", nil)
}
