package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocks/internal/faults"
	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// payloadPkg builds a package whose serialized form is dominated by file
// data, so a bit flipped at the body midpoint lands inside the payload —
// exactly the corruption only an end-to-end digest detects.
func payloadPkg(name, ver, rel, seed string) *rpm.Package {
	data := bytes.Repeat([]byte(seed), 4096)
	return rpm.New(name, v(ver, rel), rpm.ArchI386,
		rpm.FileEntry{Path: "/usr/lib/" + name, Mode: 0o644, Data: data})
}

// TestMirrorDeltaRefetchesNothingWhenUnchanged is the acceptance criterion:
// re-mirroring an unchanged distribution against the previous mirror as
// baseline must fetch zero package bodies — observed on the server, not
// inferred from the client's report.
func TestMirrorDeltaRefetchesNothingWhenUnchanged(t *testing.T) {
	parent := Build("npaci", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	server := NewServer(parent)
	srv := httptest.NewServer(server)
	defer srv.Close()

	first, rep1, err := Mirror(context.Background(), srv.URL, "gen1", MirrorOptions{Fetcher: Fetcher{HTTP: srv.Client()}})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Fetched != parent.Repo.Len() || rep1.Skipped != 0 {
		t.Fatalf("full pass report = %+v", rep1)
	}
	if rep1.Verified != rep1.Fetched {
		t.Errorf("full pass verified %d of %d fetched bodies", rep1.Verified, rep1.Fetched)
	}
	fullRequests := server.Stats().PackageRequests

	second, rep2, err := Mirror(context.Background(), srv.URL, "gen2",
		MirrorOptions{Fetcher: Fetcher{HTTP: srv.Client()}, Baseline: first})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != parent.Repo.Len() || rep2.Fetched != 0 || rep2.FetchedBytes != 0 {
		t.Fatalf("delta pass report = %+v, want everything skipped", rep2)
	}
	if got := server.Stats().PackageRequests; got != fullRequests {
		t.Errorf("delta pass hit the server for %d package bodies, want 0", got-fullRequests)
	}
	// The delta result is a complete repository with fresh provenance, and
	// reusing the baseline must not have restamped the baseline itself.
	if second.Len() != parent.Repo.Len() {
		t.Fatalf("delta mirror has %d packages, parent has %d", second.Len(), parent.Repo.Len())
	}
	for _, p := range parent.Repo.All() {
		q := second.Get(p.NVRA())
		if q == nil {
			t.Fatalf("delta mirror missing %s", p.NVRA())
		}
		if q.Source != "gen2" {
			t.Errorf("%s provenance = %q, want gen2", p.NVRA(), q.Source)
		}
	}
	for _, p := range first.All() {
		if p.Source != "gen1" {
			t.Errorf("delta pass mutated baseline provenance of %s to %q", p.NVRA(), p.Source)
		}
	}
}

// TestMirrorDeltaFetchesOnlyChanged: a version bump and a same-NVRA rebuild
// both invalidate the baseline entry (by NVRA and by digest respectively);
// only those two bodies are transferred.
func TestMirrorDeltaFetchesOnlyChanged(t *testing.T) {
	serve := func(pkgs ...*rpm.Package) *httptest.Server {
		repo := rpm.NewRepository("r")
		for _, p := range pkgs {
			repo.Add(p)
		}
		srv := httptest.NewServer(NewServer(Build("parent", nil, Source{"r", repo})))
		t.Cleanup(srv.Close)
		return srv
	}

	srvA := serve(
		payloadPkg("alpha", "1.0", "1", "a"),
		payloadPkg("beta", "1.0", "1", "b"),
		payloadPkg("gamma", "1.0", "1", "c"))
	baseline, _, err := Mirror(context.Background(), srvA.URL, "gen1", MirrorOptions{Fetcher: Fetcher{HTTP: srvA.Client()}})
	if err != nil {
		t.Fatal(err)
	}

	// Generation 2: alpha unchanged, beta version-bumped, gamma rebuilt with
	// different bytes under the same NVRA.
	srvB := serve(
		payloadPkg("alpha", "1.0", "1", "a"),
		payloadPkg("beta", "1.0", "2", "b"),
		payloadPkg("gamma", "1.0", "1", "C"))
	got, rep, err := Mirror(context.Background(), srvB.URL, "gen2",
		MirrorOptions{Fetcher: Fetcher{HTTP: srvB.Client()}, Baseline: baseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Fetched != 2 || rep.Verified != 2 {
		t.Fatalf("report = %+v, want 1 skipped / 2 fetched / 2 verified", rep)
	}
	if got.Get("beta-1.0-2.i386") == nil {
		t.Error("version-bumped beta not fetched")
	}
	g := got.Get("gamma-1.0-1.i386")
	if g == nil {
		t.Fatal("rebuilt gamma missing")
	}
	if g.Files[0].Data[0] != 'C' {
		t.Error("rebuilt gamma carries the stale baseline payload; the digest change was not honored")
	}
}

// TestMirrorEscapedFilenames: a package name carrying a space must survive
// the full serve→manifest→stream chain. A legacy parent that serves only the
// escaped listing is refused, naming the manifest it lacks, and its listing
// is never read: the listing path is gone, not weakened.
func TestMirrorEscapedFilenames(t *testing.T) {
	repo := rpm.NewRepository("r")
	repo.Add(payloadPkg("odd name", "1.0", "1", "z"))
	repo.Add(payloadPkg("plain", "1.0", "1", "p"))
	parent := Build("parent", nil, Source{"r", repo})
	inner := NewServer(parent)

	srv := httptest.NewServer(inner)
	defer srv.Close()
	mirrored, rep, err := Mirror(context.Background(), srv.URL, "m", MirrorOptions{Fetcher: Fetcher{HTTP: srv.Client()}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 2 {
		t.Fatalf("report = %+v", rep)
	}
	odd := mirrored.Get("odd name-1.0-1.i386")
	if odd == nil {
		t.Fatal("space-named package lost in the mirror")
	}
	if odd.Files[0].Data[0] != 'z' {
		t.Error("space-named package payload corrupted")
	}

	// Legacy parent: no manifest endpoint, only the escaped listing.
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/RedHat/base/") {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer legacy.Close()
	before := inner.Stats()
	mirrored2, rep2, err := Mirror(context.Background(), legacy.URL, "m2",
		MirrorOptions{Fetcher: Fetcher{HTTP: legacy.Client(), Backoff: time.Millisecond}})
	if err == nil || IsTransient(err) || !strings.Contains(err.Error(), legacy.URL+manifestPath) || mirrored2 != nil {
		t.Fatalf("legacy parent: mirror %v, err %v; want a permanent refusal naming the manifest", mirrored2, err)
	}
	if rep2.Fetched != 0 || inner.Stats() != before {
		t.Errorf("legacy parent: report %+v, serve stats %+v from %+v; want nothing asked beyond the manifest", rep2, inner.Stats(), before)
	}
}

// TestManifestEscapesOddNames: the manifest format keeps exactly four
// whitespace-delimited fields per line no matter what the NVRA or source
// contain, and parsing undoes the escaping.
func TestManifestEscapesOddNames(t *testing.T) {
	in := []ManifestEntry{{NVRA: "odd name-1.0-1.i386", Size: 7, Digest: "abc123", Source: "my mirror"}}
	text := FormatManifest(in)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if got := len(strings.Fields(line)); got != 4 {
			t.Fatalf("line %q has %d fields, want 4", line, got)
		}
	}
	out, err := ParseManifest([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestMirrorUnderCorruption drives the faults bit-flip injector through the
// mirror client's package stream: bounded corruption is detected by digest,
// retried, and accounted; unbounded corruption exhausts the retry budget and
// fails naming the file — a corrupt body never reaches the built repository.
func TestMirrorUnderCorruption(t *testing.T) {
	cases := []struct {
		name    string
		count   int // injector rule cap; 0 = every fetch corrupt
		wantErr bool
	}{
		{"bounded corruption absorbed", 2, false},
		{"persistent corruption fails naming the file", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			repo := rpm.NewRepository("r")
			clean := map[string]byte{"alpha": 'a', "beta": 'b', "gamma": 'c'}
			for name, seed := range clean {
				repo.Add(payloadPkg(name, "1.0", "1", string(seed)))
			}
			parent := Build("parent", nil, Source{"r", repo})
			srv := httptest.NewServer(NewServer(parent))
			defer srv.Close()
			inj := faults.NewInjector(7, faults.Rule{
				Op: faults.OpHTTPPackage, Mode: faults.ModeCorrupt, Count: tc.count})
			direct := srv.Client().Transport
			faulty := faults.NewTransport(inj, direct, nil)
			// Corrupt only the package stream: the manifest arrives clean,
			// which is what isolates the digest check under test.
			client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if r.Method == http.MethodPost {
					return faulty.RoundTrip(r)
				}
				return direct.RoundTrip(r)
			})}

			got, rep, err := Mirror(context.Background(), srv.URL, "m", MirrorOptions{
				Fetcher: Fetcher{HTTP: client, Attempts: 3, Backoff: time.Millisecond}})
			if tc.wantErr {
				if err == nil || got != nil {
					t.Fatal("mirror of a persistently corrupting parent must fail")
				}
				// The flipped bit lands at each stream's midpoint, so every
				// stream delivers the members before it and the next asks
				// for the rest: the last member is the one left failing.
				if !strings.Contains(err.Error(), "gamma-1.0-1.i386.rpm") {
					t.Errorf("error does not name the corrupt file: %v", err)
				}
				if !strings.Contains(err.Error(), "attempts") {
					t.Errorf("error does not mention the retry budget: %v", err)
				}
				if rep.CorruptBodies < 3 {
					t.Errorf("CorruptBodies = %d, want every attempt counted", rep.CorruptBodies)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.CorruptBodies != tc.count {
				t.Errorf("CorruptBodies = %d, want %d", rep.CorruptBodies, tc.count)
			}
			if rep.Fetched != 3 || rep.Verified != 3 {
				t.Errorf("report = %+v, want 3 fetched and verified", rep)
			}
			if !inj.Exhausted() {
				t.Error("corruption budget not consumed")
			}
			// Every surviving body is the clean one, byte for byte.
			for name, seed := range clean {
				p := got.Get(name + "-1.0-1.i386")
				if p == nil {
					t.Fatalf("mirror missing %s", name)
				}
				for _, b := range p.Files[0].Data {
					if b != seed {
						t.Fatalf("%s payload corrupted: found byte %q", name, b)
					}
				}
			}
		})
	}
}
