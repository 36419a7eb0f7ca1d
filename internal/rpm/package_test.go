package rpm

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func v(ver, rel string) Version { return Version{Version: ver, Release: rel} }

func TestNVRAAndFilename(t *testing.T) {
	p := New("dev", v("3.0.6", "5"), ArchI386)
	if got := p.NVRA(); got != "dev-3.0.6-5.i386" {
		t.Errorf("NVRA = %q", got)
	}
	if got := p.Filename(); got != "dev-3.0.6-5.i386.rpm" {
		t.Errorf("Filename = %q", got)
	}
}

func TestParseFilename(t *testing.T) {
	cases := []struct {
		in       string
		name     string
		ver, rel string
		arch     string
	}{
		{"dev-3.0.6-5.i386.rpm", "dev", "3.0.6", "5", "i386"},
		{"kernel-smp-2.4.9-31.athlon.rpm", "kernel-smp", "2.4.9", "31", "athlon"},
		{"rocks-dist-2.2.1-1.noarch.rpm", "rocks-dist", "2.2.1", "1", "noarch"},
		{"some/dir/myrinet-gm-1.5-2.src.rpm", "myrinet-gm", "1.5", "2", "src"},
	}
	for _, c := range cases {
		m, err := ParseFilename(c.in)
		if err != nil {
			t.Errorf("ParseFilename(%q): %v", c.in, err)
			continue
		}
		if m.Name != c.name || m.Version.Version != c.ver || m.Version.Release != c.rel || m.Arch != c.arch {
			t.Errorf("ParseFilename(%q) = %+v", c.in, m)
		}
	}
}

func TestParseFilenameErrors(t *testing.T) {
	for _, in := range []string{"", "foo", "foo.rpm", "foo.i386.rpm", "foo-1.i386.rpm", "-1-2.i386.rpm"} {
		if _, err := ParseFilename(in); err == nil {
			t.Errorf("ParseFilename(%q) should fail", in)
		}
	}
}

func TestParseFilenameRoundTrip(t *testing.T) {
	f := func(nameSeed, verSeed uint8) bool {
		names := []string{"dev", "kernel-smp", "glibc", "rocks-dist", "pbs-mom"}
		vers := []string{"1.0", "2.4.9", "3.0.6"}
		m := Metadata{
			Name:    names[int(nameSeed)%len(names)],
			Version: v(vers[int(verSeed)%len(vers)], "5"),
			Arch:    ArchI386,
		}
		got, err := ParseFilename(m.Filename())
		if err != nil {
			return false
		}
		return got.Name == m.Name && got.Version == m.Version && got.Arch == m.Arch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackageRoundTrip(t *testing.T) {
	p := New("dhcp", v("2.0", "5"), ArchI386,
		FileEntry{Path: "/usr/sbin/dhcpd", Mode: 0o755, Data: []byte("#!binary dhcpd")},
		FileEntry{Path: "/etc/sysconfig/dhcpd", Mode: 0o644, Data: []byte("DHCPD_INTERFACES=\"\"\n")},
	)
	p.Summary = "DHCP server"
	p.Requires = []string{"glibc"}
	p.PostScript = "chkconfig dhcpd on"

	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if q.NVRA() != p.NVRA() || q.Summary != p.Summary || q.PostScript != p.PostScript {
		t.Errorf("metadata mismatch: got %+v want %+v", q.Metadata, p.Metadata)
	}
	if !reflect.DeepEqual(q.Requires, p.Requires) {
		t.Errorf("requires mismatch: %v vs %v", q.Requires, p.Requires)
	}
	if len(q.Files) != 2 {
		t.Fatalf("got %d payload files, want 2", len(q.Files))
	}
	for i := range q.Files {
		if q.Files[i].Path != p.Files[i].Path || !bytes.Equal(q.Files[i].Data, p.Files[i].Data) {
			t.Errorf("file %d mismatch: %+v vs %+v", i, q.Files[i], p.Files[i])
		}
	}
}

// TestReadCopiesWhatItKeeps: a package read from a buffer shares no memory
// with it. The distribution client decodes every member of a stream out of
// one reused buffer, so whatever Read kept by reference — a payload slice, a
// string aliased over the bytes — the next member would overwrite. Scribble
// over the buffer after decoding and the package must still be, byte for
// byte and to its digest, the one that was encoded.
// TestIsNVRAIsTheJoinedString: IsNVRA(s) is s == NVRA() for pieces and
// strings drawn from an alphabet of separators and little else, so that
// names, versions and releases run into one another and lengths collide.
func TestIsNVRAIsTheJoinedString(t *testing.T) {
	word := func(r *rand.Rand) string {
		b := make([]byte, r.Intn(4))
		for i := range b {
			b[i] = "a1-."[r.Intn(4)]
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Metadata{Name: word(r), Version: v(word(r), word(r)), Arch: word(r)}
		candidates := []string{
			m.NVRA(),
			Metadata{Name: word(r), Version: v(word(r), word(r)), Arch: word(r)}.NVRA(),
			m.NVRA() + word(r),
			word(r) + m.NVRA(),
			word(r) + word(r) + word(r) + word(r),
		}
		if s := m.NVRA(); len(s) > 0 {
			i := r.Intn(len(s))
			candidates = append(candidates, s[:i]+word(r)+s[i+1:], s[:i]+s[i+1:])
		}
		for _, s := range candidates {
			if m.IsNVRA(s) != (s == m.NVRA()) {
				t.Logf("%+v: IsNVRA(%q) = %v", m, s, m.IsNVRA(s))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReadCopiesWhatItKeeps(t *testing.T) {
	p := New("dhcp", v("2.0", "5"), ArchI386,
		FileEntry{Path: "/usr/sbin/dhcpd", Mode: 0o755, Data: []byte("#!binary dhcpd")},
		FileEntry{Path: "/etc/sysconfig/dhcpd", Mode: 0o644, Data: bytes.Repeat([]byte("DHCPD_INTERFACES\n"), 300)},
	)
	p.Summary, p.Requires, p.PostScript, p.BuildRequires = "DHCP server", []string{"glibc"}, "chkconfig dhcpd on", []string{"gcc"}
	want := p.Bytes()
	buf := append([]byte(nil), want...)
	q, err := Read(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xA5
	}
	if !bytes.Equal(q.Bytes(), want) {
		t.Error("the decoded package changed when the buffer it was read from was overwritten")
	}
	if q.Digest != PayloadDigest(q.Files) || q.Digest != PayloadDigest(p.Files) {
		t.Errorf("digest %s no longer matches the payload", q.Digest)
	}
}

func TestPackageBytesDeterministic(t *testing.T) {
	p := New("glibc", v("2.2.4", "24"), ArchI386,
		FileEntry{Path: "/lib/libc.so.6", Mode: 0o755, Data: []byte("glibc payload")})
	if !bytes.Equal(p.Bytes(), p.Bytes()) {
		t.Error("serializing the same package twice produced different bytes")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not a package")); err == nil {
		t.Error("Read should reject input that is not a package")
	}
}

func TestNewComputesSize(t *testing.T) {
	p := New("x", v("1", "1"), ArchNoarch,
		FileEntry{Path: "/a", Data: make([]byte, 100)},
		FileEntry{Path: "/b", Data: make([]byte, 23)})
	if p.Size != 123 {
		t.Errorf("Size = %d, want 123", p.Size)
	}
}

func TestSortMetadata(t *testing.T) {
	ms := []Metadata{
		{Name: "b", Version: v("1.0", "1"), Arch: ArchI386},
		{Name: "a", Version: v("2.0", "1"), Arch: ArchI386},
		{Name: "a", Version: v("1.0", "1"), Arch: ArchI386},
	}
	SortMetadata(ms)
	want := []string{"a-1.0-1.i386", "a-2.0-1.i386", "b-1.0-1.i386"}
	for i, m := range ms {
		if m.NVRA() != want[i] {
			t.Errorf("position %d: got %s, want %s", i, m.NVRA(), want[i])
		}
	}
}

func TestPayloadDigestVerification(t *testing.T) {
	p := New("glibc", v("2.2.4", "24"), ArchI386,
		FileEntry{Path: "/lib/libc.so.6", Mode: 0o755, Data: []byte("the real library bytes")})
	raw := p.Bytes()
	// An intact package reads back and carries the digest.
	q, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if q.Digest == "" || q.Digest != PayloadDigest(q.Files) {
		t.Errorf("digest = %q", q.Digest)
	}
	// Flip one payload byte (the payload has no checksum of its own): the
	// digest check must catch it.
	idx := bytes.Index(raw, []byte("the real library bytes"))
	if idx < 0 {
		t.Fatal("payload not found in raw package")
	}
	corrupted := append([]byte(nil), raw...)
	corrupted[idx] ^= 0xff
	if _, err := Read(bytes.NewReader(corrupted)); err == nil ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestPayloadDigestOrderIndependent(t *testing.T) {
	a := []FileEntry{{Path: "/a", Data: []byte("1")}, {Path: "/b", Data: []byte("2")}}
	b := []FileEntry{{Path: "/b", Data: []byte("2")}, {Path: "/a", Data: []byte("1")}}
	if PayloadDigest(a) != PayloadDigest(b) {
		t.Error("digest should be canonical over file order")
	}
	if PayloadDigest(a) == PayloadDigest(a[:1]) {
		t.Error("different payloads should differ")
	}
}

// TestPayloadDigestPinned holds PayloadDigest to literal values computed
// before the encoding changed: every manifest, delta mirror and tree on disk
// keys on this hash, so however it is computed it must stay this function of
// (path, mode with 0 read as 0644, length, bytes) in path order.
func TestPayloadDigestPinned(t *testing.T) {
	files := []FileEntry{
		{Path: "/usr/sbin/dhcpd", Mode: 0o755, Data: []byte("#!binary dhcpd")},
		{Path: "/etc/sysconfig/dhcpd", Data: []byte("DHCPD_INTERFACES=\"\"\n")},
		{Path: "/etc/empty", Mode: 0o600},
	}
	if got, want := PayloadDigest(files), "936ed7f06c1e6573537c42916b34ae2181f14b17578780c4f0d4234456278b8e"; got != want {
		t.Errorf("PayloadDigest = %s, want %s", got, want)
	}
	if got, want := PayloadDigest(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Errorf("PayloadDigest of no files = %s, want %s", got, want)
	}
}
