package dist

import (
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"rocks/internal/metrics"
	"rocks/internal/rpm"
)

// The serving half of the distribution protocol (Fetcher is the client
// half). The paper's nodes pull RPMs with Kickstart's HTTP method (§5), and
// rocks-dist replicates parent distributions with wget over HTTP (§6.2.3).
// The layout mirrors a Red Hat tree: packages live under RedHat/RPMS/, and
// RedHat/RPMS/ itself returns a plain-text listing (one filename per line)
// that a client can walk the way wget walks a directory index.
// RedHat/base/manifest adds the digest-bearing view of the same tree (NVRA,
// size, SHA-256, provenance), which is what makes delta mirroring and
// end-to-end verification possible.

// The two documents and the package directory every distribution server
// answers, relative to its root.
const (
	rpmsPath     = "/RedHat/RPMS/"
	manifestPath = "/RedHat/base/manifest"
)

// ServeStats counts what a distribution server handed out; /v1/diststats
// exposes them. A re-mirror of an unchanged tree shows ManifestRequests
// advancing while PackageRequests stands still — the delta pass at work.
type ServeStats struct {
	ListingRequests  uint64 `json:"listing_requests"`
	ManifestRequests uint64 `json:"manifest_requests"`
	PackageRequests  uint64 `json:"package_requests"`
	PackageBytes     int64  `json:"package_bytes"`
	NotFound         uint64 `json:"not_found"`
}

// Server serves a distribution read-only over HTTP and counts traffic:
//
//	GET {prefix}/RedHat/RPMS/             → newline-separated package listing
//	GET {prefix}/RedHat/RPMS/<file>.rpm   → the package in its on-disk format
//	GET {prefix}/RedHat/base/manifest     → "NVRA size digest source" per line
//	GET {prefix}/profiles/graph.dot       → the framework's graph (diagnostic)
//
// Replicating an installation web server is safe precisely because this is
// strictly read-only (§6.3 footnote) — and because packages carry manifest
// digests, *any* verified repository can serve the same endpoints: the relay
// role (NewRepoServer) is a completed node re-serving its install tree to
// peers.
type Server struct {
	// repo resolves the served repository at request time. A server built
	// from a Distribution reads through it, so rebinding the distribution
	// in place (the §3.3 upgrade flow) is immediately visible; a relay
	// server (NewRepoServer) serves one fixed repository.
	repo func() *rpm.Repository
	mux  *http.ServeMux

	listing  atomic.Uint64
	manifest atomic.Uint64
	packages atomic.Uint64
	bytes    atomic.Int64
	notFound atomic.Uint64
}

// NewServer builds the read-only HTTP server for a distribution, including
// the framework graph diagnostic endpoint.
func NewServer(d *Distribution) *Server {
	s := newServer(func() *rpm.Repository { return d.Repo })
	s.mux.HandleFunc("/profiles/graph.dot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		io.WriteString(w, d.Framework.DOT())
	})
	return s
}

// NewRepoServer builds the read-only HTTP server for a bare repository: the
// relay server role. A node that finished installing re-serves its
// digest-verified package tree at the same RPMS/manifest endpoints the
// frontend uses, so installers can fetch from it interchangeably (peers are
// trustless — every body is verified against the frontend's manifest).
func NewRepoServer(repo *rpm.Repository) *Server {
	return newServer(func() *rpm.Repository { return repo })
}

func newServer(repo func() *rpm.Repository) *Server {
	s := &Server{repo: repo, mux: http.NewServeMux()}
	s.mux.HandleFunc(rpmsPath, s.serveRPMS)
	s.mux.HandleFunc(manifestPath, s.serveManifest)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// RegisterMetrics exposes the serving counters on the cluster's metrics
// registry — the /v1/diststats "serve" block, scrapeable. A delta
// re-mirror shows rocks_dist_manifest_requests_total advancing while
// rocks_dist_package_requests_total stands still.
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	counter := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("rocks_dist_listing_requests_total", "RedHat/RPMS/ directory listings served.", &s.listing)
	counter("rocks_dist_manifest_requests_total", "Digest manifests served.", &s.manifest)
	counter("rocks_dist_package_requests_total", "Package bodies served.", &s.packages)
	counter("rocks_dist_not_found_total", "Requests for packages the tree does not hold.", &s.notFound)
	r.CounterFunc("rocks_dist_package_bytes_total", "Package body bytes served.",
		func() float64 { return float64(s.bytes.Load()) })
	r.GaugeFunc("rocks_dist_packages", "Packages in the served distribution.",
		func() float64 { return float64(s.repo().Len()) })
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		ListingRequests:  s.listing.Load(),
		ManifestRequests: s.manifest.Load(),
		PackageRequests:  s.packages.Load(),
		PackageBytes:     s.bytes.Load(),
		NotFound:         s.notFound.Load(),
	}
}

func (s *Server) serveRPMS(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, rpmsPath)
	if rest == "" {
		s.listing.Add(1)
		names := s.repo().NVRAs()
		for i, nvra := range names {
			// Escape each name so the listing stays one token per line even
			// for filenames carrying spaces or reserved URL characters, and
			// so the client can use entries verbatim as URL path segments.
			names[i] = url.PathEscape(nvra + ".rpm")
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, strings.Join(names, "\n")+"\n")
		return
	}
	meta, err := rpm.ParseFilename(rest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The repository entry owns the package's encoding: made once, on the
	// first request for it, and immutable after.
	body := s.repo().Body(meta.NVRA())
	if body == nil {
		s.notFound.Add(1)
		http.NotFound(w, r)
		return
	}
	s.packages.Add(1)
	w.Header().Set("Content-Type", "application/x-rpm")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	// A failed write is a connection-level failure; nothing recoverable
	// server-side.
	n, _ := w.Write(body)
	s.bytes.Add(int64(n))
}

func (s *Server) serveManifest(w http.ResponseWriter, r *http.Request) {
	s.manifest.Add(1)
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, FormatManifest(Manifest(s.repo())))
}
