package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// The bundle verb: a POST to the package directory asks for many packages in
// one request and is answered with one stream. The request body is one
// path-escaped NVRA per line, spelled as the manifest spells them. The answer
// is one member per requested NVRA, in request order: a 16-byte header — the
// body's length (8 bytes, big-endian), the CRC-32 of the body, and the CRC-32
// of those twelve bytes — then exactly that many bytes, the same bytes a GET
// of the file returns. The reserved length bundleNotHeld, with no bytes after
// the header, stands for a package the tree does not hold (a relay's store
// may be partial). The two checksums are about the wire, not the source: a
// bit flipped in transit is caught wherever it lands — in a length, where it
// would otherwise shear every later member, or in a package's header fields,
// which the payload digest does not cover — and is charged to the member it
// hit. What a source may serve is still decided by verify alone.
// Fetcher.Packages is the client.
const (
	bundleHeaderLen = 16
	bundleNotHeld   = ^uint64(0)
	// A request is bounded before anything is looked up. Red Hat 7.2 ships
	// under two thousand packages; a longer list is not an install.
	maxBundleRequest = 1 << 20
	maxBundleMembers = 1 << 14
	// bundleBuffer is what one stream buffers on either side of the wire, so
	// a body of a few hundred bytes costs a fraction of a socket write, not
	// one.
	bundleBuffer = 64 << 10
)

// The buffers streams and manifests go through, kept between requests. A
// stream's is Reset to nil before it goes back, so it pins no connection.
var (
	bundleWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, bundleBuffer) }}
	bundleReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bundleBuffer) }}
	manifestTexts = sync.Pool{New: func() any { return new([]byte) }}
)

// putBundleHeader fills in a member's header.
func putBundleHeader(h *[bundleHeaderLen]byte, length uint64, bodySum uint32) {
	binary.BigEndian.PutUint64(h[0:8], length)
	binary.BigEndian.PutUint32(h[8:12], bodySum)
	binary.BigEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(h[:12]))
}

// parseBundleHeader reads a member's header back; ok is false when the
// header's own checksum does not hold.
func parseBundleHeader(h *[bundleHeaderLen]byte) (length uint64, bodySum uint32, ok bool) {
	return binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint32(h[8:12]),
		binary.BigEndian.Uint32(h[12:16]) == crc32.ChecksumIEEE(h[:12])
}

// ServeStats counts what a distribution server handed out; /v1/diststats
// exposes them. A re-mirror of an unchanged tree shows ManifestRequests
// advancing while PackageRequests stands still — the delta pass at work.
type ServeStats struct {
	ListingRequests  uint64 `json:"listing_requests"`
	ManifestRequests uint64 `json:"manifest_requests"`
	BundleRequests   uint64 `json:"bundle_requests"`
	PackageRequests  uint64 `json:"package_requests"`
	PackageBytes     int64  `json:"package_bytes"`
	NotFound         uint64 `json:"not_found"`
}

// Server serves a distribution read-only over HTTP and counts traffic:
//
//	GET {prefix}/RedHat/RPMS/             → newline-separated package listing
//	GET {prefix}/RedHat/RPMS/<file>.rpm   → the package in its on-disk format
//	POST {prefix}/RedHat/RPMS/            → the named packages, one framed stream
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
	bundles  atomic.Uint64
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
	counter("rocks_dist_bundle_requests_total", "Bundle requests answered: one stream of package bodies each.", &s.bundles)
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
		BundleRequests:   s.bundles.Load(),
		PackageRequests:  s.packages.Load(),
		PackageBytes:     s.bytes.Load(),
		NotFound:         s.notFound.Load(),
	}
}

func (s *Server) serveRPMS(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, rpmsPath)
	if rest == "" {
		if r.Method == http.MethodPost {
			s.serveBundle(w, r)
			return
		}
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
	body, _ := s.repo().Body(meta.NVRA())
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

// serveBundle answers the bundle verb. Every body is the repository entry's
// one encoding, made with its CRC-32 (Repository.Body): a member and a GET of
// the same file are the same bytes. The stream goes out through one pooled
// buffered writer, and the counters move per body, as they do for a GET.
func (s *Server) serveBundle(w http.ResponseWriter, r *http.Request) {
	// Sized by the declared length, at most maxPresize: the client's claim.
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), maxPresize)) + bytes.MinRead)
	if _, err := body.ReadFrom(io.LimitReader(r.Body, maxBundleRequest+1)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Names are counted only as far as the bound before any is looked up: a
	// refused request costs its own bytes, not a string per name in it.
	text, members := body.String(), 0
	for name, rest := cutField(text); name != "" && members <= maxBundleMembers; name, rest = cutField(rest) {
		members++
	}
	if len(text) > maxBundleRequest || members > maxBundleMembers {
		http.Error(w, "bundle request too large", http.StatusRequestEntityTooLarge)
		return
	}
	s.bundles.Add(1)
	repo := s.repo()
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bundleWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer bundleWriters.Put(bw)
	defer bw.Reset(nil) // runs first
	var header [bundleHeaderLen]byte
	for name, rest := cutField(text); name != ""; name, rest = cutField(rest) {
		body, sum := repo.Body(unescapeField(name))
		if body == nil {
			s.notFound.Add(1)
			putBundleHeader(&header, bundleNotHeld, 0)
			bw.Write(header[:])
			continue
		}
		putBundleHeader(&header, uint64(len(body)), sum)
		bw.Write(header[:])
		// A failed write is a connection-level failure (bufio keeps the
		// first one); nothing recoverable server-side.
		if _, err := bw.Write(body); err != nil {
			return
		}
		s.packages.Add(1)
		s.bytes.Add(int64(len(body)))
	}
	bw.Flush()
}

func (s *Server) serveManifest(w http.ResponseWriter, r *http.Request) {
	s.manifest.Add(1)
	// Built per request: nothing is kept that a change could leave stale.
	buf := manifestTexts.Get().(*[]byte)
	text := (*buf)[:0]
	for _, p := range s.repo().Sorted() {
		nvra := p.NVRAPieces()
		text = appendManifestLine(text, p.Size, p.Digest, p.Source, nvra[:]...)
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set("Content-Length", strconv.Itoa(len(text)))
	w.Write(text)
	*buf = text
	manifestTexts.Put(buf)
}
