package rpm

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzRead feeds Decode what a peer relay or a torn transfer could: Decode is
// the one decoder of package bytes that arrive over the network, and the
// sizes it allocates come from lengths inside those bytes. It must never
// panic, never allocate more than a small multiple of its input (a claim is
// not evidence that the bytes exist), and anything it accepts must be exactly
// what the one encoder writes: re-encoded, it is the same bytes. The corpus in
// testdata/fuzz/FuzzRead is described, and held to what it says, by
// TestReadCorpus; beside it the valid package is seeded cut at every byte of
// its header and on into its payload, where the corpus's cuts take over.
func FuzzRead(f *testing.F) {
	valid := corpusPackage().Bytes()
	for cut := 0; cut < 512; cut++ {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is the process's: the race runtime or another goroutine
		// can move it during any one decode, so the least of three decodes of
		// the same bytes is what Decode allocates.
		var p *Package
		var err error
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err = Decode(data)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// The fixed part is the Package and an error's text. The multiple is
		// what the cheapest entries decode to: a one-byte string of a list
		// becomes a 16-byte string header and a three-byte file a 48-byte
		// FileEntry, both 16 x and up to an eighth more in the allocator's
		// size classes, on top of the one copy of header and payload.
		if limit := uint64(2<<10 + 20*len(data)); got > limit {
			t.Fatalf("Decode allocated %d bytes for %d bytes of input (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		if again := p.Bytes(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %s from %d bytes, which re-encode to %d different ones", p.NVRA(), len(data), len(again))
		}
		if p.Digest != PayloadDigest(p.Files) {
			t.Fatalf("accepted %s with digest %q over a payload that hashes to %q", p.NVRA(), p.Digest, PayloadDigest(p.Files))
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzRead from corpusSeeds")

// corpusPackage is the package FuzzRead's corpus is cut from: a header of a
// couple of hundred bytes carrying every kind of field, and a payload long
// enough that a cut every 512 bytes lands inside it eight times.
func corpusPackage() *Package {
	p := New("dhcp", v("2.0", "5"), ArchI386,
		FileEntry{Path: "/etc/sysconfig/dhcpd", Mode: 0o644, Data: bytes.Repeat([]byte("DHCPD_INTERFACES\n"), 300)},
		FileEntry{Path: "/usr/sbin/dhcpd", Mode: 0o755, Data: []byte("#!binary dhcpd")},
	)
	p.Summary, p.Requires, p.PostScript, p.BuildRequires = "DHCP server", []string{"glibc"}, "chkconfig dhcpd on", []string{"gcc"}
	p.Source = "redhat"
	return p
}

// corpusSeeds forges FuzzRead's checked-in corpus from the valid package:
// each seed's bytes, and what Decode must say of them ("" = accepts).
func corpusSeeds(t *testing.T) map[string]struct {
	data []byte
	want string
} {
	valid := corpusPackage().Bytes()
	const headerAt = len(fileMagic) + 4
	at := func(landmark string) int {
		i := bytes.Index(valid, []byte(landmark))
		if i < 0 || bytes.Count(valid, []byte(landmark)) != 1 {
			t.Fatalf("landmark %q is not in the valid package exactly once", landmark)
		}
		return i
	}
	flip := func(i int) []byte {
		b := bytes.Clone(valid)
		b[i] ^= 0x04
		return b
	}
	// claim replaces the one-byte number at i with 1 GiB, and tells the
	// header's length field about the four bytes that adds.
	claim := func(i int) []byte {
		b := append(binary.AppendUvarint(bytes.Clone(valid[:i]), 1<<30), valid[i+1:]...)
		binary.BigEndian.PutUint32(b[headerAt-4:], binary.BigEndian.Uint32(b[headerAt-4:])+4)
		return b
	}
	headerEnd := headerAt + int(binary.BigEndian.Uint32(valid[headerAt-4:]))
	seeds := map[string]struct {
		data []byte
		want string
	}{
		"valid":               {valid, ""},
		"metadata-bitflip":    {flip(at("dhcp\x00")), ""}, // the name: another package, as well formed
		"length-bitflip":      {flip(at("\x04dhcp\x00")), "rpm: "},
		"payload-bitflip":     {flip(at("#!binary")), "digest mismatch"},
		"oversize-header":     {append(append(bytes.Clone(valid[:headerAt-4]), 0x40, 0, 0, 0), valid[headerAt:]...), "header claims 1073741824 bytes"},
		"oversize-string":     {claim(at("\x04dhcp\x00")), "name claims 1073741824, "},
		"oversize-list-count": {claim(at("\x01\x05glibc")), "requires claims 1073741824, "},
		"oversize-file-count": {claim(at("\x02\x14/etc/sysconfig/dhcpd")), "file table claims 1073741824, "},
		"oversize-file-data":  {claim(headerEnd - 1), `file "/usr/sbin/dhcpd" claims 1073741824 bytes`},
		"trailing-bytes":      {append(bytes.Clone(valid), '!'), "0 bytes of header and 1 of payload after the last file"},
	}
	for cut := 512; cut <= 4096; cut += 512 {
		seeds[fmt.Sprintf("truncated-%04d", cut)] = struct {
			data []byte
			want string
		}{valid[:cut], `file "/etc/sysconfig/dhcpd" claims 5100 bytes`}
	}
	return seeds
}

// TestReadCorpus holds FuzzRead's checked-in corpus to corpusSeeds: every
// file is the bytes its seed forges — so a corpus the encoding changed under
// fails here and is rewritten (go test ./internal/rpm -run TestReadCorpus
// -update), not silently replayed as noise — and Decode says of each what the
// seed's name promises.
func TestReadCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	seeds := corpusSeeds(t)
	for name, seed := range seeds {
		file := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed.data)) + ")\n"
		if *updateCorpus {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != file {
			t.Errorf("%s is not what corpusSeeds forges (%v); rerun with -update", name, err)
		}
		_, err := Decode(seed.data)
		if seed.want == "" && err != nil || seed.want != "" && (err == nil || !strings.Contains(err.Error(), seed.want)) {
			t.Errorf("%s: Decode = %v, want %q", name, err, seed.want)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := seeds[f.Name()]; !ok {
			t.Errorf("%s is in the corpus and not in corpusSeeds", f.Name())
		}
	}
}
