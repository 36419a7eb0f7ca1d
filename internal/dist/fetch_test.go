package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocks/internal/faults"
	"rocks/internal/rpm"
)

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// injected builds a fault transport that fires one mode on the package seam
// count times (0 = always).
func injected(mode faults.Mode, count int) func(http.RoundTripper) http.RoundTripper {
	return func(next http.RoundTripper) http.RoundTripper {
		inj := faults.NewInjector(1, faults.Rule{Op: faults.OpHTTPPackage, Mode: mode, Count: count})
		return faults.NewTransport(inj, next, nil)
	}
}

// fetchOne fetches one entry with one of the fetcher's two package verbs: the
// GET of Package (subtests keep their bare names), or the bundle of Packages
// asked for that entry alone.
var fetchOne = []struct {
	verb  string // subtest name prefix
	fetch func(f *Fetcher, base string, e ManifestEntry) (*rpm.Package, error)
}{
	{"", func(f *Fetcher, base string, e ManifestEntry) (*rpm.Package, error) {
		p, _, err := f.Package(context.Background(), base, e)
		return p, err
	}},
	{"bundle/", func(f *Fetcher, base string, e ManifestEntry) (p *rpm.Package, err error) {
		done, err := f.Packages(context.Background(), base, []ManifestEntry{e}, func(_ int, got *rpm.Package, _ int64) error {
			p = got
			return nil
		})
		if (err == nil) != (done == 1) || (p != nil) != (done == 1) {
			return nil, fmt.Errorf("Packages = %d, %v with a package delivered: %v", done, err, p != nil)
		}
		return p, err
	}},
}

// TestFetcherConformance drives the one distribution client through every
// fault it classifies, against both kinds of server that speak the protocol
// (a distribution's and a relay's bare repository) and through both of its
// package verbs (one GET, or one bundle): same bodies accepted and rejected,
// same classification, same retry count, and an error naming the file and
// the source URL, whichever server, whichever verb and whichever consumer.
func TestFetcherConformance(t *testing.T) {
	const file = "alpha-1.0-1.i386.rpm"
	cases := []struct {
		name      string
		fault     func(http.RoundTripper) http.RoundTripper // nil = clean wire
		entry     string                                    // NVRA asked for; "" = alpha
		wantOK    bool
		retries   int  // OnRetry calls
		transient bool // classification of the final error
		corrupt   bool // final error wraps ErrCorruptBody
		corrupted int  // attempts that failed verification
		errHas    string
		bundleHas string // what a bundle's error says instead, if not errHas
	}{
		{name: "clean", wantOK: true},
		{name: "500 then ok", fault: injected(faults.ModeError500, 1), wantOK: true, retries: 1},
		{name: "truncated body", fault: injected(faults.ModeTruncate, 1), wantOK: true, retries: 1},
		{name: "bit-flipped body", fault: injected(faults.ModeCorrupt, 1), wantOK: true, retries: 1, corrupted: 1},
		{name: "500 for the whole budget", fault: injected(faults.ModeError500, 0),
			retries: 2, transient: true, errHas: "after 3 attempts"},
		{name: "bit-flipped for the whole budget", fault: injected(faults.ModeCorrupt, 0),
			retries: 2, transient: true, corrupt: true, corrupted: 3, errHas: "after 3 attempts"},
		{name: "substituted NVRA", retries: 2, transient: true, corrupt: true, corrupted: 3,
			errHas: "body identifies as beta-1.0-1.i386.rpm",
			fault: func(next http.RoundTripper) http.RoundTripper {
				return roundTripperFunc(func(r *http.Request) (*http.Response, error) {
					r = r.Clone(r.Context())
					r.URL.Path = strings.Replace(r.URL.Path, "alpha", "beta", 1)
					if r.Body != nil {
						asked, _ := io.ReadAll(r.Body)
						ask := strings.Replace(string(asked), "alpha", "beta", 1)
						r.Body, r.ContentLength, r.GetBody = io.NopCloser(strings.NewReader(ask)), int64(len(ask)), nil
					}
					return next.RoundTrip(r)
				})
			}},
		{name: "404", entry: "ghost-1.0-1.i386", errHas: "HTTP 404", bundleHas: "does not hold it"},
		{name: "4xx is not retried", errHas: "HTTP 403",
			fault: func(http.RoundTripper) http.RoundTripper {
				return roundTripperFunc(func(r *http.Request) (*http.Response, error) {
					return &http.Response{Status: "403 Forbidden", StatusCode: http.StatusForbidden,
						Body: io.NopCloser(strings.NewReader("")), Request: r}, nil
				})
			}},
	}
	repo := rpm.NewRepository("r")
	repo.Add(payloadPkg("alpha", "1.0", "1", "a"))
	repo.Add(payloadPkg("beta", "1.0", "1", "b"))
	servers := map[string]http.Handler{
		"distribution": NewServer(Build("d", nil, Source{"r", repo})),
		"relay":        NewRepoServer(repo),
	}
	for kind, handler := range servers {
		srv := httptest.NewServer(handler)
		defer srv.Close()
		entries, verified, err := (&Fetcher{HTTP: srv.Client()}).Index(context.Background(), srv.URL)
		if err != nil || !verified || len(entries) != 2 {
			t.Fatalf("%s: Index = %v, verified %v, %v", kind, entries, verified, err)
		}
		for _, verb := range fetchOne {
			for _, tc := range cases {
				t.Run(kind+"/"+verb.verb+tc.name, func(t *testing.T) {
					client := &http.Client{Transport: srv.Client().Transport}
					if tc.fault != nil {
						client.Transport = tc.fault(client.Transport)
					}
					retries := 0
					f := &Fetcher{HTTP: client, Attempts: 3, Backoff: time.Millisecond,
						OnRetry: func(string, error, int, time.Duration) { retries++ }}
					want := entries[0] // alpha, with its manifest digest
					if tc.entry != "" {
						want = ManifestEntry{NVRA: tc.entry}
					}
					var p *rpm.Package
					corrupted := 0
					err := f.Do(context.Background(), want.NVRA+".rpm", func() error {
						var err error
						p, err = verb.fetch(f, srv.URL, want)
						if errors.Is(err, ErrCorruptBody) {
							corrupted++
						}
						return err
					})
					if retries != tc.retries || corrupted != tc.corrupted {
						t.Errorf("retries = %d, corrupt attempts = %d; want %d, %d", retries, corrupted, tc.retries, tc.corrupted)
					}
					if tc.wantOK {
						if err != nil {
							t.Fatal(err)
						}
						if p.Filename() != file || p.Digest != want.Digest || p.Files[0].Data[0] != 'a' {
							t.Errorf("fetched %s digest %s, want the clean alpha", p.Filename(), p.Digest)
						}
						return
					}
					if err == nil {
						t.Fatal("want an error")
					}
					if IsTransient(err) != tc.transient || errors.Is(err, ErrCorruptBody) != tc.corrupt {
						t.Errorf("transient = %v, corrupt = %v; want %v, %v: %v",
							IsTransient(err), errors.Is(err, ErrCorruptBody), tc.transient, tc.corrupt, err)
					}
					errHas := tc.errHas
					if verb.verb != "" && tc.bundleHas != "" {
						errHas = tc.bundleHas
					}
					for _, s := range []string{want.NVRA + ".rpm", srv.URL, errHas} {
						if !strings.Contains(err.Error(), s) {
							t.Errorf("error does not mention %q: %v", s, err)
						}
					}
				})
			}
		}
	}
}

// TestFetcherCancelInsideBackoff: cancelling while the retry loop sleeps out
// an hour-long backoff returns within that step, with the cancellation in
// the error chain — the guarantee TestMirrorCancelReturnsWithinOneBackoff
// demands of a whole pass, at its source.
func TestFetcherCancelInsideBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "permanently broken", http.StatusInternalServerError)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &Fetcher{HTTP: srv.Client(), Attempts: 10, Backoff: time.Hour,
		OnRetry: func(string, error, int, time.Duration) { cancel() }}
	start := time.Now()
	_, _, err := f.Index(ctx, srv.URL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled fetch took %v", elapsed)
	}
}

// TestIndexFallsBackOnlyOn404 is the verification-downgrade regression: the
// unverified listing is for a server that has no manifest (404), never for
// one whose manifest request failed. A 5xx is retried — one injected fault
// costs a retry, not the digests — and a manifest that stays broken fails
// the fetch naming the manifest, with the listing never asked for.
func TestIndexFallsBackOnlyOn404(t *testing.T) {
	repo := rpm.NewRepository("r")
	repo.Add(payloadPkg("alpha", "1.0", "1", "a"))
	server := NewServer(Build("d", nil, Source{"r", repo}))
	var manifestFails atomic.Int64 // how many manifest requests still fail
	var status atomic.Int64
	status.Store(http.StatusInternalServerError)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == manifestPath && manifestFails.Add(-1) >= 0 {
			http.Error(w, "no", int(status.Load()))
			return
		}
		server.ServeHTTP(w, r)
	}))
	defer srv.Close()
	f := &Fetcher{HTTP: srv.Client(), Attempts: 3, Backoff: time.Millisecond}

	manifestFails.Store(1)
	entries, verified, err := f.Index(context.Background(), srv.URL)
	if err != nil || !verified || len(entries) != 1 || entries[0].Digest == "" {
		t.Fatalf("one 500: entries %+v, verified %v, err %v; want the verified manifest", entries, verified, err)
	}

	manifestFails.Store(1 << 30)
	_, _, err = f.Index(context.Background(), srv.URL)
	if err == nil || !IsTransient(err) || !strings.Contains(err.Error(), srv.URL+manifestPath) {
		t.Fatalf("broken manifest: err = %v, want a transient failure naming the manifest", err)
	}
	_, _, err = Mirror(context.Background(), srv.URL, "m", MirrorOptions{Fetcher: *f})
	if err == nil || !strings.Contains(err.Error(), srv.URL+manifestPath) {
		t.Fatalf("mirror of a parent with a broken manifest: err = %v, want a failure naming the manifest", err)
	}
	if n := server.Stats().ListingRequests; n != 0 {
		t.Errorf("listing requested %d times behind a failing manifest, want 0", n)
	}

	status.Store(http.StatusNotFound)
	entries, verified, err = f.Index(context.Background(), srv.URL)
	if err != nil || verified || len(entries) != 1 || entries[0] != (ManifestEntry{NVRA: "alpha-1.0-1.i386"}) {
		t.Fatalf("manifest-less server: entries %+v, verified %v, err %v; want the bare listing", entries, verified, err)
	}
}

// TestConcurrentManifestAndPackageServing hammers the manifest and package
// endpoints of a distribution built from in-memory packages (no digest until
// a repository stamped one) from goroutines released together, while another
// goroutine keeps re-pushing the served packages (same payload, so the
// manifest digests hold; new metadata, so each push is a new encoding). Under
// -race this is the regression test for the lazy digest stamp that concurrent
// manifest requests used to race on, and for the encode-once body: a GET
// racing a replacing Add serves the old package or the new one, whole.
func TestConcurrentManifestAndPackageServing(t *testing.T) {
	const packages = 64
	repo := rpm.NewRepository("r")
	for i := 0; i < packages; i++ {
		repo.Add(payloadPkg(fmt.Sprintf("pkg%02d", i), "1.0", "1", "x"))
	}
	d := Build("d", nil, Source{"r", repo})
	srv := httptest.NewServer(NewServer(d))
	defer srv.Close()
	f := &Fetcher{HTTP: srv.Client()}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				entries, verified, err := f.Index(context.Background(), srv.URL)
				if err != nil || !verified || len(entries) != packages {
					t.Errorf("Index = %d entries, verified %v, %v", len(entries), verified, err)
					return
				}
				if _, _, err := f.Package(context.Background(), srv.URL, entries[(g*4+i)%packages]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for round := 0; round < 4; round++ {
			for i := 0; i < packages; i++ {
				p := payloadPkg(fmt.Sprintf("pkg%02d", i), "1.0", "1", "x")
				p.Summary = fmt.Sprintf("re-pushed %d", round)
				d.Repo.Add(p)
			}
		}
	}()
	close(start)
	wg.Wait()
	for _, p := range d.Repo.All() {
		if p.Summary != "re-pushed 3" {
			t.Fatalf("%s: summary %q, want the last push", p.NVRA(), p.Summary)
		}
		if body, err := f.Get(context.Background(), srv.URL+rpmsPath+p.Filename(), nil); err != nil || !bytes.Equal(body, p.Bytes()) {
			t.Fatalf("%s: served body is not the last push's encoding (%v)", p.NVRA(), err)
		}
	}
}
