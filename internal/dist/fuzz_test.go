package dist

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rocks/internal/rpm"
)

// fuzzEntries is the fixed request FuzzBundle's inputs answer: alpha, then
// beta, each with the digest a frontend's manifest would carry.
func fuzzEntries() (entries []ManifestEntry, bodies [][]byte) {
	for _, p := range []*rpm.Package{payloadPkg("alpha", "1.0", "1", "a"), payloadPkg("beta", "1.0", "1", "b")} {
		entries = append(entries, ManifestEntry{NVRA: p.NVRA(), Digest: p.EnsureDigest()})
		bodies = append(bodies, p.Bytes())
	}
	return entries, bodies
}

// bundleOf frames bodies as a source's answer; a nil body is the "not held"
// marker.
func bundleOf(bodies ...[]byte) []byte {
	var out bytes.Buffer
	var header [bundleHeaderLen]byte
	for _, body := range bodies {
		if body == nil {
			putBundleHeader(&header, bundleNotHeld, 0)
		} else {
			putBundleHeader(&header, uint64(len(body)), crc32.ChecksumIEEE(body))
		}
		out.Write(header[:])
		out.Write(body)
	}
	return out.Bytes()
}

// FuzzBundle feeds readBundle arbitrary bytes as a source's answer to a fixed
// request for two packages: the stream is the one thing an installer reads
// from a peer it does not trust, and every length in it is that peer's claim.
// It must never panic or hang, never allocate more than a small multiple of
// its input beyond the stream's two fixed buffers, hand over members in
// request order and only ones the shared verify accepts, and report exactly
// as many done as it handed over. The corpus in testdata/fuzz/FuzzBundle is
// described, and held to what it says, by TestBundleCorpus.
func FuzzBundle(f *testing.F) {
	entries, _ := fuzzEntries()
	f.Fuzz(func(t *testing.T, answer []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered := 0
		done, err := readBundle(context.Background(), bytes.NewReader(answer), "fuzz", entries,
			func(i int, p *rpm.Package, n int64) error {
				if i != delivered || n > int64(len(answer)) {
					t.Fatalf("handed member %d of %d bytes after %d others, from %d bytes of input", i, n, delivered, len(answer))
				}
				if _, err := verify(p.Bytes(), entries[i], "fuzz"); err != nil {
					t.Fatalf("handed member %d, which the shared verify rejects: %v", i, err)
				}
				delivered++
				return nil
			})
		runtime.ReadMemStats(&after)
		// The fixed part is the stream's read buffer, the most a claimed
		// length may presize (twice: under the race detector bytes.Buffer
		// makes its new slice and then copies it), and a package and an
		// error's text per member; the multiple is FuzzRead's, and as much
		// again for the re-encoding the check above does.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(bundleBuffer+2*maxPresize+8<<10+40*len(answer)); got > limit {
			t.Fatalf("readBundle allocated %d bytes for %d bytes of input (limit %d)", got, len(answer), limit)
		}
		if done != delivered || (err == nil) != (done == len(entries)) {
			t.Fatalf("done = %d with %d members handed over, err = %v", done, delivered, err)
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzBundle from bundleSeeds")

// bundleSeeds forges FuzzBundle's checked-in corpus: answers to the request
// for alpha, then beta.
func bundleSeeds(t *testing.T) map[string][]byte {
	_, bodies := fuzzEntries()
	alpha, beta := bodies[0], bodies[1]
	good := bundleOf(alpha, beta)
	second := bundleHeaderLen + len(alpha) // where beta's member starts
	flipped := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0x01
		return b
	}
	// alpha's Size, which follows its architecture and empty summary: a
	// header field neither the payload digest nor the NVRA covers.
	size := bytes.Index(alpha, []byte("\x04i386\x00")) + 6
	payload := bytes.Index(beta, []byte("bbbbbbbb"))
	if size < 6 || payload < 0 {
		t.Fatal("the package encoding moved under bundleSeeds' landmarks")
	}
	var claim [bundleHeaderLen]byte
	putBundleHeader(&claim, uint64(len(alpha))+1000, crc32.ChecksumIEEE(alpha))
	return map[string][]byte{
		"good-two-members":    good,
		"trailing-bytes":      append(bytes.Clone(good), "and more"...),
		"not-held-second":     bundleOf(alpha, nil),
		"torn-header":         good[:second+7],
		"torn-body":           good[:second+bundleHeaderLen+len(beta)/2],
		"length-beyond-input": append(claim[:], alpha...),
		// The member's own checksum recomputed, as a forging peer would: only
		// the payload digest inside the package catches it.
		"flipped-payload-bit": bundleOf(alpha, flipped(beta, payload)),
		// Damage in transit to a field no digest covers: only the member's
		// checksum catches it.
		"flipped-metadata-bit": flipped(good, bundleHeaderLen+size),
		"flipped-length-bit":   flipped(good, second+7),
		"swapped-members":      bundleOf(beta, alpha),
		"empty":                nil,
	}
}

// TestBundleCorpus reads FuzzBundle's checked-in corpus as a table: each
// seed, how far the stream gets, and how the failure is classified. It keeps
// the corpus honest — every file is the bytes bundleSeeds forges, so a corpus
// the package encoding changed under fails here and is rewritten (go test
// ./internal/dist -run TestBundleCorpus -update), not silently replayed as
// noise — and each seed means what its name says.
func TestBundleCorpus(t *testing.T) {
	entries, _ := fuzzEntries()
	seeds := bundleSeeds(t)
	for name, want := range map[string]struct {
		done                     int
		transient, corrupt, held bool // of the error, when done < 2; held false = "not held"
	}{
		"good-two-members":     {done: 2},
		"trailing-bytes":       {done: 2},
		"not-held-second":      {done: 1},
		"torn-header":          {done: 1, transient: true, held: true},
		"torn-body":            {done: 1, transient: true, held: true},
		"length-beyond-input":  {done: 0, transient: true, held: true},
		"flipped-payload-bit":  {done: 1, transient: true, corrupt: true, held: true},
		"flipped-metadata-bit": {done: 0, transient: true, corrupt: true, held: true},
		"flipped-length-bit":   {done: 1, transient: true, corrupt: true, held: true},
		"swapped-members":      {done: 0, transient: true, corrupt: true, held: true},
		"empty":                {done: 0, transient: true, held: true},
	} {
		path := filepath.Join("testdata", "fuzz", "FuzzBundle", name)
		if *updateCorpus {
			file := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seeds[name])) + ")\n"
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		answer := readSeed(t, path)
		if !bytes.Equal(answer, seeds[name]) {
			t.Errorf("%s is not what bundleSeeds forges; rerun with -update", name)
			continue
		}
		done, err := readBundle(context.Background(), bytes.NewReader(answer), "seed", entries,
			func(int, *rpm.Package, int64) error { return nil })
		if done != want.done || (err == nil) != (want.done == 2) {
			t.Errorf("%s: done = %d, err = %v; want %d", name, done, err, want.done)
			continue
		}
		if err == nil {
			continue
		}
		var status *statusError
		notHeld := errors.As(err, &status) && status.code == 404
		if IsTransient(err) != want.transient || errors.Is(err, ErrCorruptBody) != want.corrupt || notHeld == want.held {
			t.Errorf("%s: transient %v, corrupt %v, not held %v: %v", name, IsTransient(err), errors.Is(err, ErrCorruptBody), notHeld, err)
		}
		if file := entries[done].NVRA + ".rpm"; !strings.Contains(err.Error(), file) {
			t.Errorf("%s: error does not name %s: %v", name, file, err)
		}
	}
}

// readSeed decodes a one-value []byte file of the go fuzz corpus format.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s is not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
