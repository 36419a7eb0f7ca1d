package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// get serves one request for a package file straight through a handler.
func get(h http.Handler, file string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", rpmsPath+file, nil))
	return rec
}

// TestServedBodyIsTheEncoding: whatever route put a package into a served
// repository — a build, a child build sharing the parent's packages by
// reference, a delta mirror re-stamping a shallow copy of a baseline package,
// an Add replacing an NVRA that has already been served — a GET returns
// exactly the stored package's encoding, under a Content-Length that says so,
// and a removed package is gone. Every repository is served before the next
// one is derived from it, so a body cached anywhere but on the repository's
// own entry would be served stale here.
func TestServedBodyIsTheEncoding(t *testing.T) {
	check := func(step string, h http.Handler, repo *rpm.Repository) {
		t.Helper()
		if repo.Len() == 0 {
			t.Fatalf("%s: empty repository", step)
		}
		for _, p := range repo.All() {
			rec := get(h, p.Filename())
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), p.Bytes()) {
				t.Fatalf("%s: GET %s = HTTP %d, body is not the stored package's encoding", step, p.Filename(), rec.Code)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%s: GET %s: Content-Length %q for %d bytes", step, p.Filename(), got, rec.Body.Len())
			}
		}
	}
	src := rpm.NewRepository("redhat")
	src.Add(payloadPkg("alpha", "1.0", "1", "a"))
	src.Add(payloadPkg("beta", "1.0", "1", "b"))
	parent := Build("parent", kickstart.DefaultFramework(), Source{"redhat", src})
	parentSrv := NewServer(parent)
	check("Build", parentSrv, parent.Repo)

	local := rpm.NewRepository("local")
	local.Add(payloadPkg("gamma", "1.0", "1", "c"))
	child := BuildChild("child", parent, nil, Source{"local", local})
	childSrv := NewServer(child)
	check("BuildChild", childSrv, child.Repo)

	// A delta mirror of the parent against a baseline that already holds
	// alpha: the mirror's alpha is a shallow copy carrying new provenance.
	baseline := rpm.NewRepository("old-mirror")
	baseline.Add(parent.Repo.Get("alpha-1.0-1.i386"))
	ts := httptest.NewServer(parentSrv)
	defer ts.Close()
	mirror, report, err := Mirror(context.Background(), ts.URL, "mirror", MirrorOptions{
		Fetcher: Fetcher{HTTP: ts.Client()}, Baseline: baseline})
	if err != nil || report.Skipped != 1 || report.Fetched != 1 {
		t.Fatalf("Mirror: %+v, %v; want alpha reused and beta fetched", report, err)
	}
	if got := mirror.Get("alpha-1.0-1.i386").Source; got != "mirror" {
		t.Fatalf("mirrored alpha has provenance %q", got)
	}
	check("Mirror with Baseline", NewRepoServer(mirror), mirror)
	check("Build, after its packages were copied", parentSrv, parent.Repo)

	// Replace a served NVRA, then remove one.
	parent.Repo.Add(payloadPkg("alpha", "1.0", "1", "A"))
	check("replacing Add", parentSrv, parent.Repo)
	if body := get(parentSrv, "alpha-1.0-1.i386.rpm").Body.Bytes(); !bytes.Contains(body, []byte("AAAA")) {
		t.Fatal("replacing Add: the replaced payload is still served")
	}
	check("child of a parent whose package was replaced", childSrv, child.Repo)
	if !parent.Repo.Remove("beta-1.0-1.i386") {
		t.Fatal("Remove(beta) = false")
	}
	check("Remove", parentSrv, parent.Repo)
	if rec := get(parentSrv, "beta-1.0-1.i386.rpm"); rec.Code != http.StatusNotFound {
		t.Fatalf("removed package: HTTP %d, want 404", rec.Code)
	}
}

// TestServeWorkIndependentOfRepoSize counts, it does not time: one package
// GET through the server, and one bundle of three, allocate the same number
// of objects whether the repository holds a hundred packages or ten thousand.
// A lookup that formats an NVRA per stored package, or a body encoded per
// request, fails this.
func TestServeWorkIndependentOfRepoSize(t *testing.T) {
	allocs := func(packages int) (perGet, perBundle float64) {
		repo := rpm.NewRepository("r")
		for i := 0; i < packages; i++ {
			repo.Add(rpm.New(fmt.Sprintf("pkg%05d", i), v("1.0", "1"), rpm.ArchI386,
				rpm.FileEntry{Path: "/f", Data: []byte("x")}))
		}
		h := NewRepoServer(repo)
		file := fmt.Sprintf("pkg%05d-1.0-1.i386.rpm", packages/2)
		perGet = testing.AllocsPerRun(20, func() {
			if rec := get(h, file); rec.Code != http.StatusOK {
				t.Fatalf("GET %s = HTTP %d", file, rec.Code)
			}
		})
		ask := fmt.Sprintf("pkg%05d-1.0-1.i386\npkg%05d-1.0-1.i386\npkg%05d-1.0-1.i386\n", 0, packages/2, packages-1)
		perBundle = testing.AllocsPerRun(20, func() {
			if rec := post(h, ask); rec.Code != http.StatusOK || len(members(t, rec.Body.Bytes())) != 3 {
				t.Fatalf("bundle = HTTP %d", rec.Code)
			}
		})
		return perGet, perBundle
	}
	smallGet, smallBundle := allocs(100)
	largeGet, largeBundle := allocs(10000)
	if smallGet != largeGet {
		t.Errorf("one GET allocates %.0f objects from 100 packages and %.0f from 10 000", smallGet, largeGet)
	}
	// Under the race detector sync.Pool drops a quarter of what is put back,
	// so a bundle's count is the pooled writer's luck, not the lookup's.
	if smallBundle != largeBundle && !raceEnabled {
		t.Errorf("one bundle of three allocates %.0f objects from 100 packages and %.0f from 10 000", smallBundle, largeBundle)
	}
}

// post serves one bundle request straight through a handler.
func post(h http.Handler, ask string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", rpmsPath, strings.NewReader(ask)))
	return rec
}

// members takes a bundle answer apart by the header layout http.go documents,
// checking both checksums; a nil member is the "not held" marker.
func members(t *testing.T, answer []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(answer) > 0 {
		if len(answer) < 16 {
			t.Fatalf("%d bytes where a member header should be", len(answer))
		}
		h, rest := answer[:16], answer[16:]
		if binary.BigEndian.Uint32(h[12:]) != crc32.ChecksumIEEE(h[:12]) {
			t.Fatalf("member %d: header checksum does not hold", len(out))
		}
		n := binary.BigEndian.Uint64(h)
		if n == ^uint64(0) {
			out, answer = append(out, nil), rest
			continue
		}
		if n > uint64(len(rest)) {
			t.Fatalf("member %d claims %d bytes, %d follow", len(out), n, len(rest))
		}
		if binary.BigEndian.Uint32(h[8:]) != crc32.ChecksumIEEE(rest[:n]) {
			t.Fatalf("member %d: body checksum does not hold", len(out))
		}
		out, answer = append(out, rest[:n]), rest[n:]
	}
	return out
}

// TestBundleIsTheGetBodiesInRequestOrder is the bundle verb's contract, read
// off the wire without the client: one member per requested NVRA in request
// order (a repeat is served twice), each the bytes a GET of that file returns,
// the "not held" marker and a not_found count for a package the tree lacks,
// one bundle request and one package request per body on the counters, and a
// request over either bound refused before anything is looked up.
func TestBundleIsTheGetBodiesInRequestOrder(t *testing.T) {
	repo := rpm.NewRepository("r")
	for _, name := range []string{"alpha", "beta", "gamma", "odd name"} {
		repo.Add(payloadPkg(name, "1.0", "1", name[:1]))
	}
	srv := NewRepoServer(repo)
	asked := []string{"gamma-1.0-1.i386", "ghost-1.0-1.i386", "alpha-1.0-1.i386", "odd name-1.0-1.i386", "gamma-1.0-1.i386"}
	var ask strings.Builder
	for _, nvra := range asked {
		ask.WriteString(url.PathEscape(nvra) + "\n")
	}
	rec := post(srv, ask.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("bundle = HTTP %d: %s", rec.Code, rec.Body)
	}
	got := members(t, rec.Body.Bytes())
	if len(got) != len(asked) {
		t.Fatalf("%d members for %d names", len(got), len(asked))
	}
	var bytesServed int64
	for i, nvra := range asked {
		want := get(srv, url.PathEscape(nvra+".rpm")).Body.Bytes()
		if nvra == "ghost-1.0-1.i386" {
			want = nil
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("member %d (%s) is not the body a GET returns", i, nvra)
		}
		bytesServed += 2 * int64(len(want)) // once in the bundle, once by the GET above
	}
	// Five GETs above, one of them the 404 for ghost.
	want := ServeStats{BundleRequests: 1, PackageRequests: 4 + 4, PackageBytes: bytesServed, NotFound: 1 + 1}
	if stats := srv.Stats(); stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}

	for name, ask := range map[string]string{
		"too many members": strings.Repeat("a\n", maxBundleMembers+1),
		"too many bytes":   strings.Repeat("a", maxBundleRequest+1),
	} {
		if rec := post(srv, ask); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: HTTP %d, want 413", name, rec.Code)
		}
	}
	if stats := srv.Stats(); stats != want {
		t.Errorf("refused requests moved the counters: %+v, want %+v", stats, want)
	}
}

// TestRefusingABundleCostsItsBytes: a request naming more members than the
// bound is refused with the same answer however it is counted, and what the
// refusal allocates is a small multiple of the request — reading it, and
// one string of it — not a string per name in it. Splitting the whole body
// before counting allocated 14 times its size for one-letter names.
func TestRefusingABundleCostsItsBytes(t *testing.T) {
	srv := NewRepoServer(rpm.NewRepository("r"))
	ask := strings.Repeat("a\n", maxBundleRequest/2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := post(srv, ask)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != "bundle request too large\n" {
		t.Fatalf("HTTP %d %q, want 413 naming the bound", rec.Code, rec.Body)
	}
	// The read buffer twice under the race detector (bytes.Buffer makes its
	// slice, then copies it), the string once, and room for the recorder.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(ask)); got > limit {
		t.Errorf("refusing %d bytes of %d names allocated %d bytes (limit %d)", len(ask), len(ask)/2, got, limit)
	}
	if stats := srv.Stats(); stats != (ServeStats{}) {
		t.Errorf("a refused request moved the counters: %+v", stats)
	}
}

// TestStreamBuffersAreReused: once warm, a bundle round trip between a
// relay's server and the fetcher, over HTTP, allocates less than one stream
// buffer on the two sides together: the server's writer and the client's
// reader come back from their pools rather than being made per stream.
func TestStreamBuffersAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put back")
	}
	repo := rpm.NewRepository("r")
	var entries []ManifestEntry
	for _, name := range []string{"alpha", "beta", "gamma"} {
		p := rpm.New(name, v("1.0", "1"), rpm.ArchI386, rpm.FileEntry{Path: "/usr/lib/" + name, Data: []byte(name)})
		repo.Add(p)
		entries = append(entries, ManifestEntry{NVRA: p.NVRA(), Digest: p.EnsureDigest()})
	}
	ts := httptest.NewServer(NewRepoServer(repo))
	defer ts.Close()
	f := &Fetcher{HTTP: ts.Client()}
	round := func() {
		if done, err := f.Packages(context.Background(), ts.URL, entries, func(int, *rpm.Package, int64) error { return nil }); err != nil || done != len(entries) {
			t.Fatalf("Packages: %d of %d, %v", done, len(entries), err)
		}
	}
	round() // a connection, the pools' first buffers, every body encoded
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= bundleBuffer {
		t.Errorf("a warm bundle round trip allocates %d bytes, at least a stream buffer (%d)", per, bundleBuffer)
	}
}

// TestManifestDeclaresItsLength: the manifest goes out under a Content-Length,
// so Fetcher.Get reads it into one buffer, and FormatManifest sizes its
// builder once.
func TestManifestDeclaresItsLength(t *testing.T) {
	d := Build("d", nil, Source{"redhat", SyntheticRedHat()})
	rec := httptest.NewRecorder()
	NewServer(d).ServeHTTP(rec, httptest.NewRequest("GET", manifestPath, nil))
	text := FormatManifest(Manifest(d.Repo))
	if rec.Body.String() != text || rec.Header().Get("Content-Length") != strconv.Itoa(len(text)) {
		t.Fatalf("manifest: %d bytes under Content-Length %q, want %d", rec.Body.Len(), rec.Header().Get("Content-Length"), len(text))
	}
	// One builder of about the text's size (made, then copied into, under the
	// race detector), plus what fmt boxes per line; a builder grown by
	// doubling allocates the text more than four times over.
	entries := Manifest(d.Repo)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FormatManifest(entries)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(text)+64*len(entries)); got > limit {
		t.Errorf("FormatManifest allocated %d bytes for %d bytes of text (limit %d)", got, len(text), limit)
	}
}

// TestSyntheticManifestPinned: the manifest of the synthetic distribution is,
// byte for byte, the text it was before the package encoding and the manifest
// round were rewritten — same order, same digests, same spelling — so every
// tree, mirror and installer that keyed on the old text keys on this one.
func TestSyntheticManifestPinned(t *testing.T) {
	d := Build("d", nil, Source{"redhat", SyntheticRedHat()})
	text := FormatManifest(Manifest(d.Repo))
	if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(text))), "7c3d02360ffe3d3c1de26527907c152160924a5e009a4abf69332cd6c7e12224"; got != want || len(text) != 34977 {
		t.Errorf("manifest is %d bytes hashing to %s, want 34977 hashing to %s", len(text), got, want)
	}
}

// TestOversizeHeaderIsACorruptBody: a body whose header claims 1 GiB for a
// file while a few bytes follow — a forging peer, or a transfer torn and
// spliced — is a corrupt body like any other: a plain error from rpm.Read,
// transient and ErrCorruptBody from Fetcher.Packages, and no buffer of the
// claimed size.
func TestOversizeHeaderIsACorruptBody(t *testing.T) {
	good := payloadPkg("alpha", "1.0", "1", "a")
	// The package format (internal/rpm/package.go): a five-byte magic, the
	// header's length in four bytes, the header — whose last number is the
	// one file's data length, 4096 in two bytes — and the payload. Put 1 GiB
	// (five bytes) in its place, say so in the header's length, and follow it
	// with 100 bytes of payload.
	body := good.Bytes()
	headerEnd := 9 + int(binary.BigEndian.Uint32(body[5:9]))
	var forged bytes.Buffer
	forged.Write(binary.AppendUvarint(body[:headerEnd-2:headerEnd-2], 1<<30))
	forged.Write(body[headerEnd : headerEnd+100])
	binary.BigEndian.PutUint32(forged.Bytes()[5:9], uint32(headerEnd-9+3))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := rpm.Read(bytes.NewReader(forged.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "claims 1073741824 bytes") {
		t.Fatalf("rpm.Read = %v, want an error naming the claim", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rpm.Read of %d forged bytes allocated %d bytes", forged.Len(), got)
	}
	// Served as a bundle member whose frame is intact: only the body lies.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var header [bundleHeaderLen]byte
		putBundleHeader(&header, uint64(forged.Len()), crc32.ChecksumIEEE(forged.Bytes()))
		w.Write(append(header[:], forged.Bytes()...))
	}))
	defer srv.Close()
	f := &Fetcher{HTTP: srv.Client()}
	_, err = f.Packages(context.Background(), srv.URL, []ManifestEntry{{NVRA: good.NVRA(), Digest: good.EnsureDigest()}},
		func(int, *rpm.Package, int64) error { return nil })
	if !errors.Is(err, ErrCorruptBody) || !IsTransient(err) {
		t.Fatalf("Fetcher.Packages = %v, want a transient ErrCorruptBody", err)
	}
}
