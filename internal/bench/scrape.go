package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"rocks/internal/core"
	"rocks/internal/metrics"
)

// counts accumulates /metrics deltas by family, labels summed away. Counts
// are sampled at the same boundaries spans are: one scrape before and one
// after each round, so a ratio is taken over exactly the work the round did.
type counts map[string]float64

// scrape reads the frontend's /metrics through its own handler and parser.
func scrape(c *core.Cluster) (counts, error) {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", rec.Code)
	}
	s, err := metrics.ParseText(rec.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := counts{}
	for key, v := range s.Values {
		family, _, _ := strings.Cut(key, "{")
		out[family] += v
	}
	return out, nil
}

// timedCounted is run.timed between two scrapes of c, whose difference is
// added to totals (traced runs only: the scrapes are part of the tracing
// cost, and stay outside the timed section).
func (r *run) timedCounted(c *core.Cluster, totals counts, section func()) {
	if !r.opt.Trace {
		r.timed(section)
		return
	}
	before, err := scrape(c)
	if err != nil {
		r.errorf("%v", err)
	}
	r.timed(section)
	after, err := scrape(c)
	if err != nil {
		r.errorf("%v", err)
	}
	for family, v := range after {
		totals[family] += v - before[family]
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics turns accumulated /metrics deltas into the per-layer count
// metrics. timedS is the wall time the deltas were taken over.
func (r *run) countMetrics(d counts, timedS float64) {
	for name, family := range map[string]string{
		"installer.fetch_retries":    "rocks_installer_fetch_retries_total",
		"installer.packages_corrupt": "rocks_installer_packages_corrupt_total",
		"dist.package_requests":      "rocks_dist_package_requests_total",
		"dist.package_bytes":         "rocks_dist_package_bytes_total",
		"dist.manifest_requests":     "rocks_dist_manifest_requests_total",
		"dist.listing_requests":      "rocks_dist_listing_requests_total",
		"dist.not_found":             "rocks_dist_not_found_total",
		"kickstart.cache_hits":       "rocks_kickstart_cache_hits_total",
		"kickstart.cache_misses":     "rocks_kickstart_cache_misses_total",
		"clusterdb.index_selects":    "rocks_db_index_selects_total",
		"clusterdb.scan_selects":     "rocks_db_scan_selects_total",
		"clusterdb.wal_records":      "rocks_db_wal_records_appended_total",
		"clusterdb.wal_fsyncs":       "rocks_db_wal_fsyncs_total",
		"clusterdb.wal_snapshots":    "rocks_db_wal_snapshots_total",
		"core.reports_scheduled":     "rocks_reports_scheduled_total",
		"core.reports_writes":        "rocks_reports_writes_total",
		"core.reports_skips":         "rocks_reports_skips_total",
		"lifecycle.events_published": "rocks_lifecycle_events_total",
		"lifecycle.ring_evictions":   "rocks_lifecycle_ring_evictions_total",
		"lifecycle.subscriber_drops": "rocks_lifecycle_subscriber_drops_total",
	} {
		r.set(name, d[family], 1)
	}
	installs := d["rocks_installer_installs_total"]
	fetches := d["rocks_installer_fetch_seconds_count"]
	cgis := d["rocks_kickstart_cgi_seconds_count"]
	selects := d["rocks_db_index_selects_total"] + d["rocks_db_scan_selects_total"]
	r.set("installer.fetch_us_mean", ratio(d["rocks_installer_fetch_seconds_sum"], fetches)*1e6, int(fetches))
	r.set("installer.bytes_per_install", ratio(d["rocks_installer_fetch_bytes_total"], installs), int(installs))
	r.set("dist.serve_mb_per_s", ratio(d["rocks_dist_package_bytes_total"]/1e6, timedS), 1)
	r.set("core.cgi_us_mean", ratio(d["rocks_kickstart_cgi_seconds_sum"], cgis)*1e6, int(cgis))
	r.set("kickstart.cache_hit_ratio", ratio(d["rocks_kickstart_cache_hits_total"],
		d["rocks_kickstart_cache_hits_total"]+d["rocks_kickstart_cache_misses_total"]), 1)
	r.set("clusterdb.plan_cache_hit_ratio", ratio(d["rocks_db_plan_cache_hits_total"],
		d["rocks_db_plan_cache_hits_total"]+d["rocks_db_plan_cache_misses_total"]), 1)
	r.set("clusterdb.scan_share", ratio(d["rocks_db_scan_selects_total"], selects), int(selects))
	r.set("clusterdb.wal_bytes_per_row", ratio(d["rocks_db_wal_bytes_appended_total"],
		d["rocks_db_wal_records_appended_total"]), int(d["rocks_db_wal_records_appended_total"]))
}
