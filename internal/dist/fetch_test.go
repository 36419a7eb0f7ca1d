package dist

import (
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

// fetchOne fetches one entry under the fetcher's budget, the two ways the
// client pulls packages: the resume loop every consumer pulls through
// (Stream over Packages; subtests keep their bare names), or one bundle
// (Packages) retried as a whole under Do. corrupt counts the attempts that
// failed verification.
var fetchOne = []struct {
	verb  string // subtest name prefix
	fetch func(f *Fetcher, base string, e ManifestEntry, corrupt *int) (*rpm.Package, error)
}{
	{"", func(f *Fetcher, base string, e ManifestEntry, corrupt *int) (p *rpm.Package, err error) {
		ctx := context.Background()
		err = f.Stream(ctx, []ManifestEntry{e}, func(rest []ManifestEntry) (int, error) {
			return bundleOne(f, base, rest[0], corrupt, &p)
		})
		return p, err
	}},
	{"bundle/", func(f *Fetcher, base string, e ManifestEntry, corrupt *int) (p *rpm.Package, err error) {
		err = f.Do(context.Background(), e.NVRA+".rpm", func() error {
			_, err := bundleOne(f, base, e, corrupt, &p)
			return err
		})
		return p, err
	}},
}

// bundleOne makes one attempt at a bundle of e alone, keeping what arrived.
func bundleOne(f *Fetcher, base string, e ManifestEntry, corrupt *int, p **rpm.Package) (int, error) {
	*p = nil
	done, err := f.Packages(context.Background(), base, []ManifestEntry{e}, func(_ int, got *rpm.Package, _ int64) error {
		*p = got
		return nil
	})
	if errors.Is(err, ErrCorruptBody) {
		*corrupt++
	}
	if (err == nil) != (done == 1) || (*p != nil) != (done == 1) {
		return done, fmt.Errorf("Packages = %d, %v with a package delivered: %v", done, err, *p != nil)
	}
	return done, err
}

// TestFetcherConformance drives the one distribution client through every
// fault it classifies, against both kinds of server that speak the protocol
// (a distribution's and a relay's bare repository) and both ways a package
// is pulled (the resume loop, or one bundle retried whole): same bodies
// accepted and rejected, same classification, same retry count, and an
// error naming the file and the source URL, whichever server and whichever
// consumer.
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
		{name: "404", entry: "ghost-1.0-1.i386", errHas: "does not hold it"},
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
		entries, err := (&Fetcher{HTTP: srv.Client()}).Index(context.Background(), srv.URL)
		if err != nil || len(entries) != 2 {
			t.Fatalf("%s: Index = %v, %v", kind, entries, err)
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
					corrupted := 0
					p, err := verb.fetch(f, srv.URL, want, &corrupted)
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
					for _, s := range []string{want.NVRA + ".rpm", srv.URL, tc.errHas} {
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
	_, err := f.Index(ctx, srv.URL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled fetch took %v", elapsed)
	}
}

// TestIndexRefusesAMissingManifest is the verification-downgrade
// regression: there is no unverified index. A 5xx on the manifest is retried
// — one injected fault costs a retry, not the digests — and a manifest that
// stays broken fails the fetch naming it. A server that answers 404 for the
// manifest is refused at once, permanently, naming the manifest's URL. The
// listing is never asked for, by Index or by a mirror pass.
func TestIndexRefusesAMissingManifest(t *testing.T) {
	repo := rpm.NewRepository("r")
	repo.Add(payloadPkg("alpha", "1.0", "1", "a"))
	server := NewServer(Build("d", nil, Source{"r", repo}))
	var manifestFails atomic.Int64 // how many manifest requests still fail
	var status atomic.Int64
	status.Store(http.StatusInternalServerError)
	var manifestAsked atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == manifestPath {
			manifestAsked.Add(1)
			if manifestFails.Add(-1) >= 0 {
				http.Error(w, "no", int(status.Load()))
				return
			}
		}
		server.ServeHTTP(w, r)
	}))
	defer srv.Close()
	f := &Fetcher{HTTP: srv.Client(), Attempts: 3, Backoff: time.Millisecond}

	manifestFails.Store(1)
	entries, err := f.Index(context.Background(), srv.URL)
	if err != nil || len(entries) != 1 || entries[0].Digest == "" {
		t.Fatalf("one 500: entries %+v, err %v; want the manifest", entries, err)
	}

	manifestFails.Store(1 << 30)
	_, err = f.Index(context.Background(), srv.URL)
	if err == nil || !IsTransient(err) || !strings.Contains(err.Error(), srv.URL+manifestPath) {
		t.Fatalf("broken manifest: err = %v, want a transient failure naming the manifest", err)
	}

	status.Store(http.StatusNotFound)
	for _, index := range []func() error{
		func() error { _, err := f.Index(context.Background(), srv.URL); return err },
		func() error {
			_, _, err := Mirror(context.Background(), srv.URL, "m", MirrorOptions{Fetcher: *f})
			return err
		},
	} {
		manifestAsked.Store(0)
		err := index()
		if err == nil || IsTransient(err) || !strings.Contains(err.Error(), srv.URL+manifestPath) ||
			!strings.Contains(err.Error(), "serves no digest manifest") {
			t.Fatalf("manifest-less server: err = %v, want a permanent refusal naming the manifest", err)
		}
		if n := manifestAsked.Load(); n != 1 {
			t.Errorf("a 404 manifest was asked for %d times, want once", n)
		}
	}
	if st := server.Stats(); st.ListingRequests != 0 || st.BundleRequests != 0 {
		t.Errorf("behind a failing manifest: %d listings and %d bundles requested, want none", st.ListingRequests, st.BundleRequests)
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
				entries, err := f.Index(context.Background(), srv.URL)
				if err != nil || len(entries) != packages {
					t.Errorf("Index = %d entries, %v", len(entries), err)
					return
				}
				// The same package by GET and as a bundle member.
				e := entries[(g*4+i)%packages]
				body, err := f.Get(context.Background(), srv.URL+rpmsPath+e.NVRA+".rpm", nil)
				if err == nil {
					_, err = verify(nil, []byte(body), e, srv.URL)
				}
				if err == nil {
					_, err = f.Packages(context.Background(), srv.URL, []ManifestEntry{e}, func(int, *rpm.Package, int64) error { return nil })
				}
				if err != nil {
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
		if body, err := f.Get(context.Background(), srv.URL+rpmsPath+p.Filename(), nil); err != nil || body != string(p.Bytes()) {
			t.Fatalf("%s: served body is not the last push's encoding (%v)", p.NVRA(), err)
		}
	}
}

// TestVerifyIdentity: verify accepts a body exactly when its NVRA is the
// entry's — what comparing the two spelled strings accepted — including an
// NVRA two (name, version, release) splits spell alike ("a-1" 2-3, "a"
// 1-2-3: one identity, as in a Repository), and refuses a body off by one
// character in any field in the words it always has.
func TestVerifyIdentity(t *testing.T) {
	pkg := func(name, ver, rel, arch string) *rpm.Package {
		return rpm.New(name, v(ver, rel), arch, rpm.FileEntry{Path: "/usr/lib/" + name, Data: []byte(name)})
	}
	for _, c := range []struct {
		body     *rpm.Package
		nvra     string
		accepted bool
	}{
		{pkg("a", "1", "2", "i386"), "a-1-2.i386", true},
		{pkg("a-1", "2", "3", "i386"), "a-1-2-3.i386", true},
		{pkg("a", "1-2", "3", "i386"), "a-1-2-3.i386", true},
		{pkg("a", "1", "2-3", "i386"), "a-1-2-3.i386", true},
		{pkg("b", "1", "2", "i386"), "a-1-2.i386", false},
		{pkg("ab", "1", "2", "i386"), "a-1-2.i386", false},
		{pkg("", "1", "2", "i386"), "a-1-2.i386", false},
		{pkg("a", "0", "2", "i386"), "a-1-2.i386", false},
		{pkg("a", "11", "2", "i386"), "a-1-2.i386", false},
		{pkg("a", "1", "3", "i386"), "a-1-2.i386", false},
		{pkg("a", "1", "", "i386"), "a-1-2.i386", false},
		{pkg("a", "1", "2", "i486"), "a-1-2.i386", false},
		{pkg("a", "1", "2", "i386x"), "a-1-2.i386", false},
		{pkg("a", "1", "2", "i38"), "a-1-2.i386", false},
		{pkg("a", "1", "2", "i386"), "a-1-2.i386.", false},
		{pkg("a", "1", "2", "i386"), "a-1-2-i386", false},
	} {
		body := c.body.Bytes()
		p, err := verify(nil, body, ManifestEntry{NVRA: c.nvra, Digest: c.body.EnsureDigest()}, "src")
		if c.accepted {
			if err != nil || p.NVRA() != c.nvra {
				t.Errorf("%s as %s: %v, want it accepted", c.body.NVRA(), c.nvra, err)
			}
			continue
		}
		want := fmt.Sprintf("dist: verifying %s.rpm from src: %v (body identifies as %s)", c.nvra, ErrCorruptBody, c.body.Filename())
		if err == nil || err.Error() != want || !errors.Is(err, ErrCorruptBody) || !IsTransient(err) {
			t.Errorf("%s as %s: %v, want a transient %q", c.body.NVRA(), c.nvra, err, want)
		}
	}
}
