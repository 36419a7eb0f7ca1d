package rpm

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"time"
)

// Arch names the hardware architectures Rocks supports. The Meteor cluster
// in the paper mixes IA-32, Athlon, and IA-64 nodes under one graph (§6.1).
const (
	ArchI386   = "i386"
	ArchAthlon = "athlon"
	ArchIA64   = "ia64"
	ArchNoarch = "noarch"
	ArchSRPM   = "src" // source package, e.g. the Myrinet driver source RPM
)

// FileEntry is one file carried in a package payload.
type FileEntry struct {
	Path string // absolute path on the installed system, e.g. "/etc/dhcpd.conf"
	Mode uint32 // permission bits
	Data []byte // file contents
}

// Metadata describes a package without its payload; it is what repository
// indexes and the installed-package database store.
type Metadata struct {
	Name     string   // package name, e.g. "dhcp"
	Version  Version  // EVR
	Arch     string   // one of the Arch* constants
	Summary  string   // one-line description
	Size     int64    // installed payload size in bytes
	Requires []string // names of packages that must be installed first
	Source   string   // which repository/origin produced the package (for rocks-dist provenance)
	// Digest is the hex SHA-256 over the payload, stamped at serialization
	// time and verified on read — a corrupted mirror or truncated download
	// fails loudly instead of installing garbage.
	Digest string `json:",omitempty"`
}

// NVRA returns the canonical name-version-release.arch identifier.
func (m Metadata) NVRA() string {
	return m.Name + "-" + m.Version.Version + "-" + m.Version.Release + "." + m.Arch
}

// Filename returns the package file name, NVRA plus the ".rpm" suffix.
func (m Metadata) Filename() string { return m.NVRA() + ".rpm" }

// Package is a complete binary package: metadata, payload files, and
// optional install-time scripts.
type Package struct {
	Metadata
	Files []FileEntry
	// PostScript runs after the payload is unpacked (RPM %post). The
	// simulated installer records its execution in the node's install log.
	PostScript string
	// BuildRequires applies to source packages: the packages that must be
	// installed before the source can be compiled (e.g. kernel headers for
	// the Myrinet driver, §6.3).
	BuildRequires []string
}

// ParseFilename splits "name-version-release.arch.rpm" back into its parts.
// Package names may themselves contain dashes, so the version and release
// are taken as the last two dash-separated fields.
func ParseFilename(fn string) (Metadata, error) {
	var m Metadata
	base := path.Base(fn)
	if !strings.HasSuffix(base, ".rpm") {
		return m, fmt.Errorf("rpm: %q does not end in .rpm", fn)
	}
	base = strings.TrimSuffix(base, ".rpm")
	dot := strings.LastIndexByte(base, '.')
	if dot < 0 {
		return m, fmt.Errorf("rpm: %q has no architecture suffix", fn)
	}
	m.Arch = base[dot+1:]
	nvr := base[:dot]
	d2 := strings.LastIndexByte(nvr, '-')
	if d2 <= 0 {
		return m, fmt.Errorf("rpm: %q has no release field", fn)
	}
	d1 := strings.LastIndexByte(nvr[:d2], '-')
	if d1 <= 0 {
		return m, fmt.Errorf("rpm: %q has no version field", fn)
	}
	m.Name = nvr[:d1]
	m.Version = Version{Version: nvr[d1+1 : d2], Release: nvr[d2+1:]}
	return m, nil
}

// payloadSize sums the sizes of the payload files.
func payloadSize(files []FileEntry) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Data))
	}
	return n
}

// New builds a Package, filling in Size from the payload when the caller
// left it zero. A caller may set Size explicitly to model a larger package
// than the synthetic payload actually carries (the timing experiments do
// this so that 162 packages sum to the paper's 225 MB without allocating
// 225 MB of bytes).
func New(name string, version Version, arch string, files ...FileEntry) *Package {
	p := &Package{Metadata: Metadata{Name: name, Version: version, Arch: arch}, Files: files}
	p.Size = payloadSize(files)
	return p
}

const metadataEntry = "metadata.json"

// WriteTo serializes the package in the on-disk format: a tar archive whose
// first entry is metadata.json (the Metadata plus scripts) and whose
// remaining entries are the payload files. It implements io.WriterTo.
func (p *Package) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	tw := tar.NewWriter(cw)
	hdr := struct {
		Metadata
		PostScript    string   `json:"post_script,omitempty"`
		BuildRequires []string `json:"build_requires,omitempty"`
	}{p.Metadata, p.PostScript, p.BuildRequires}
	hdr.Digest = PayloadDigest(p.Files)
	meta, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return cw.n, err
	}
	if err := writeTarFile(tw, metadataEntry, 0o644, meta); err != nil {
		return cw.n, err
	}
	for _, f := range p.Files {
		if err := writeTarFile(tw, "payload"+f.Path, f.Mode, f.Data); err != nil {
			return cw.n, err
		}
	}
	return cw.n, tw.Close()
}

// Read parses a package from its on-disk tar format.
func Read(r io.Reader) (*Package, error) {
	tr := tar.NewReader(r)
	sized, _ := r.(interface{ Len() int })
	first, err := tr.Next()
	if err != nil {
		return nil, fmt.Errorf("rpm: reading package: %w", err)
	}
	if first.Name != metadataEntry {
		return nil, fmt.Errorf("rpm: first entry is %q, want %q", first.Name, metadataEntry)
	}
	var hdr struct {
		Metadata
		PostScript    string   `json:"post_script"`
		BuildRequires []string `json:"build_requires"`
	}
	if err := json.NewDecoder(tr).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("rpm: decoding metadata: %w", err)
	}
	p := &Package{Metadata: hdr.Metadata, PostScript: hdr.PostScript, BuildRequires: hdr.BuildRequires}
	for {
		th, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("rpm: reading payload: %w", err)
		}
		data, err := readPayload(tr, th.Size, sized)
		if err != nil {
			return nil, fmt.Errorf("rpm: reading payload %q: %w", th.Name, err)
		}
		p.Files = append(p.Files, FileEntry{
			Path: strings.TrimPrefix(th.Name, "payload"),
			Mode: uint32(th.Mode),
			Data: data,
		})
	}
	if p.Digest != "" {
		if got := PayloadDigest(p.Files); got != p.Digest {
			return nil, fmt.Errorf("rpm: %s: payload digest mismatch (corrupted package)", p.NVRA())
		}
	}
	return p, nil
}

// readPayload reads the payload file the tar reader stands at. A source that
// can say how many bytes it has left (a fetched body held in memory) gets one
// buffer of the size the file's header claims — once the claim is known to
// fit in what is left, so a forged or torn header costs an error and never an
// allocation of the size it names. A stream of unknown length (a file of a
// tree on disk) is read as its bytes arrive.
func readPayload(tr *tar.Reader, size int64, sized interface{ Len() int }) ([]byte, error) {
	if sized == nil {
		return io.ReadAll(tr)
	}
	if left := int64(sized.Len()); size > left {
		return nil, fmt.Errorf("header claims %d bytes, %d left in the package", size, left)
	}
	data := make([]byte, size)
	_, err := io.ReadFull(tr, data)
	return data, err
}

// PayloadDigest computes the canonical SHA-256 over a payload: file paths,
// modes, and contents in path order.
func PayloadDigest(files []FileEntry) string {
	sorted := append([]FileEntry(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	h := sha256.New()
	for _, f := range sorted {
		mode := f.Mode
		if mode == 0 {
			mode = 0o644 // the default the tar writer applies
		}
		fmt.Fprintf(h, "%s\x00%o\x00%d\x00", f.Path, mode, len(f.Data))
		h.Write(f.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EnsureDigest returns the package's payload digest, computing and stamping
// it when the package was built in memory and never serialized. Packages
// that came through WriteTo/Read already carry it, and Repository.Add
// stamps the rest, so only code holding a package no repository has seen
// needs this; everything else reads Digest. The digest is the package's
// content identity across the distribution pipeline: manifests, delta
// mirroring, and install-time verification all key on it.
func (p *Package) EnsureDigest() string {
	if p.Digest == "" {
		p.Digest = PayloadDigest(p.Files)
	}
	return p.Digest
}

// Bytes serializes the package to a byte slice.
func (p *Package) Bytes() []byte {
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		// Writing to a bytes.Buffer cannot fail; a failure here means the
		// package itself is malformed beyond repair.
		panic("rpm: serializing package: " + err.Error())
	}
	return buf.Bytes()
}

// SortMetadata orders package descriptions by name, then by version (oldest
// first), then by architecture, giving repositories a stable listing order.
func SortMetadata(ms []Metadata) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		if c := Compare(ms[i].Version, ms[j].Version); c != 0 {
			return c < 0
		}
		return ms[i].Arch < ms[j].Arch
	})
}

func writeTarFile(tw *tar.Writer, name string, mode uint32, data []byte) error {
	if mode == 0 {
		mode = 0o644
	}
	if err := tw.WriteHeader(&tar.Header{
		Name:    name,
		Mode:    int64(mode),
		Size:    int64(len(data)),
		ModTime: time.Unix(0, 0), // fixed timestamp keeps package bytes deterministic
	}); err != nil {
		return err
	}
	_, err := tw.Write(data)
	return err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
