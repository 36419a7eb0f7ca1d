package rpm

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// NVRAPieces is the NVRA in the pieces NVRA joins, separators included, for
// writing one (a manifest line) without building it. It and IsNVRA take a
// pointer, so a call copies no Metadata.
func (m *Metadata) NVRAPieces() [7]string {
	return [...]string{m.Name, "-", m.Version.Version, "-", m.Version.Release, ".", m.Arch}
}

// IsNVRA reports whether s is the package's NVRA: exactly when s == m.NVRA().
// It compares the length, then each piece where it must sit in s.
func (m *Metadata) IsNVRA(s string) bool {
	name, ver, rel := m.Name, m.Version.Version, m.Version.Release
	if len(s) != len(name)+len(ver)+len(rel)+len(m.Arch)+3 {
		return false
	}
	i := len(name) // where each separator sits
	j := i + 1 + len(ver)
	k := j + 1 + len(rel)
	return s[:i] == name && s[i] == '-' && s[i+1:j] == ver && s[j] == '-' &&
		s[j+1:k] == rel && s[k] == '.' && s[k+1:] == m.Arch
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

// ParseFilename splits "name-version-release.arch.rpm" back into its parts:
// the NVRA of the path's last element, which must end in ".rpm" (ParseNVRA).
func ParseFilename(fn string) (Metadata, error) {
	nvra, ok := strings.CutSuffix(path.Base(fn), ".rpm")
	if !ok {
		return Metadata{}, fmt.Errorf("rpm: %q does not end in .rpm", fn)
	}
	return ParseNVRA(nvra)
}

// ParseNVRA splits "name-version-release.arch" back into its parts. Package
// names may themselves contain dashes, so the version and release are taken
// as the last two dash-separated fields.
func ParseNVRA(nvra string) (Metadata, error) {
	var m Metadata
	dot := strings.LastIndexByte(nvra, '.')
	if dot < 0 {
		return m, fmt.Errorf("rpm: %q has no architecture suffix", nvra)
	}
	m.Arch = nvra[dot+1:]
	nvr := nvra[:dot]
	d2 := strings.LastIndexByte(nvr, '-')
	if d2 <= 0 {
		return m, fmt.Errorf("rpm: %q has no release field", nvra)
	}
	d1 := strings.LastIndexByte(nvr[:d2], '-')
	if d1 <= 0 {
		return m, fmt.Errorf("rpm: %q has no version field", nvra)
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

// The package file format, a header and a payload as in an RPM: the magic
// and the format's number; the header's length, 4 bytes big-endian; the
// header — Name, Epoch, Version, Release, Arch, Summary, Size, Requires,
// Source, Digest, PostScript, BuildRequires, the file count, and per file
// Path, Mode and data length; then the files' data, back to back. A string is
// its length and its bytes, a list its count and its strings, every number an
// unsigned varint. Nothing is padded and nothing follows the last file's
// data. Bytes is the only encoder and Decode the only decoder.
const fileMagic = "\xedRKS\x01"

// ErrFormat marks bytes that do not open with the magic: not a damaged
// package but none at all — a file in the tar format this one replaced, say.
var ErrFormat = errors.New("not a package of this format (a tree written in an older one must be re-materialized with rocks-dist)")

// Bytes serializes the package in the file format. Digest is stamped from the
// files as they are, and an unset file mode written as 0644.
func (p *Package) Bytes() []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	list := func(b []byte, l []string) []byte {
		b = binary.AppendUvarint(b, uint64(len(l)))
		for _, s := range l {
			b = str(b, s)
		}
		return b
	}
	// One buffer, unless the header outgrows the room left for a usual one.
	b := append(make([]byte, 0, 256+payloadSize(p.Files)), fileMagic+"\x00\x00\x00\x00"...)
	b = str(b, p.Name)
	b = binary.AppendUvarint(b, uint64(p.Version.Epoch))
	b = str(str(str(str(b, p.Version.Version), p.Version.Release), p.Arch), p.Summary)
	b = binary.AppendUvarint(b, uint64(p.Size))
	b = str(list(b, p.Requires), p.Source)
	b = str(str(b, PayloadDigest(p.Files)), p.PostScript)
	b = binary.AppendUvarint(list(b, p.BuildRequires), uint64(len(p.Files)))
	for _, f := range p.Files {
		b = binary.AppendUvarint(str(b, f.Path), uint64(cmp.Or(f.Mode, 0o644)))
		b = binary.AppendUvarint(b, uint64(len(f.Data)))
	}
	header := len(fileMagic) + 4
	binary.BigEndian.PutUint32(b[header-4:], uint32(len(b)-header))
	for _, f := range p.Files {
		b = append(b, f.Data...)
	}
	return b
}

// WriteTo writes the package in the file format. It implements io.WriterTo.
func (p *Package) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.Bytes())
	return int64(n), err
}

// Read decodes a package from a stream of unknown length — a file of a tree
// on disk — by reading all of it.
func Read(r io.Reader) (*Package, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rpm: reading package: %w", err)
	}
	return Decode(body)
}

// Decode parses a package from the bytes of its file, which may be a peer's:
// every length and count is a claim, tested against the bytes left before it
// sizes anything, and the payload digest is recomputed. The package shares no
// memory with body — the header is copied once and every string is a piece of
// the copy, the payload once and every file's data a piece of that — so the
// caller may reuse body at once. What Decode accepts, Bytes encodes back to
// the same bytes.
func Decode(body []byte) (*Package, error) {
	hdr, payload, err := frame(body)
	if err != nil {
		return nil, err
	}
	h, whole := header{s: string(hdr)}, payload
	p := &Package{}
	p.Name = h.str("name")
	p.Version.Epoch = int(h.uvarint("epoch"))
	p.Version.Version, p.Version.Release = h.str("version"), h.str("release")
	p.Arch, p.Summary = h.str("architecture"), h.str("summary")
	p.Size = int64(h.uvarint("size"))
	p.Requires, p.Source = h.list("requires"), h.str("source")
	p.Digest, p.PostScript = h.str("digest"), h.str("post script")
	p.BuildRequires = h.list("build requires")
	// A file costs the header at least three bytes: path length, mode, length.
	if n := h.length("file table", 3); n > 0 {
		p.Files = make([]FileEntry, n)
	}
	for i := range p.Files {
		f := &p.Files[i]
		f.Path = h.str("file path")
		mode, n := h.uvarint("file mode"), h.uvarint("file length")
		switch {
		case h.err != nil:
			return nil, h.err
		case mode == 0 || mode > math.MaxUint32:
			return nil, fmt.Errorf("rpm: file %q has mode %#o, which the encoder does not write", f.Path, mode)
		case n > uint64(len(payload)):
			return nil, fmt.Errorf("rpm: file %q claims %d bytes, %d left in the package", f.Path, n, len(payload))
		}
		// Data aliases body until the whole package has been checked.
		f.Mode, f.Data, payload = uint32(mode), payload[:n], payload[n:]
	}
	switch {
	case h.err != nil:
		return nil, h.err
	case len(h.s) > 0 || len(payload) > 0:
		return nil, fmt.Errorf("rpm: %d bytes of header and %d of payload after the last file", len(h.s), len(payload))
	}
	if PayloadDigest(p.Files) != p.Digest {
		return nil, fmt.Errorf("rpm: %s: payload digest mismatch (corrupted package)", p.NVRA())
	}
	kept := bytes.Clone(whole)
	for i := range p.Files {
		n := len(p.Files[i].Data)
		p.Files[i].Data, kept = kept[:n:n], kept[n:]
	}
	return p, nil
}

// frame splits a package's file into its header and its payload.
func frame(body []byte) (hdr, payload []byte, err error) {
	rest, ok := bytes.CutPrefix(body, []byte(fileMagic))
	if !ok {
		return nil, nil, fmt.Errorf("rpm: %w", ErrFormat)
	}
	if len(rest) < 4 {
		return nil, nil, errors.New("rpm: package cut short before its header")
	}
	end := 4 + int64(binary.BigEndian.Uint32(rest))
	if end > int64(len(rest)) {
		return nil, nil, fmt.Errorf("rpm: header claims %d bytes, %d left in the package", end-4, len(rest)-4)
	}
	return rest[4:end], rest[end:], nil
}

// header is what is left to read of a header and the first thing wrong with
// it; after a failure every read returns zero.
type header struct {
	s   string
	err error
}

// uvarint reads one number, spelled the one way the encoder spells it: one
// padded with zero groups is refused.
func (h *header) uvarint(what string) uint64 {
	v, n := binary.Uvarint([]byte(h.s[:min(len(h.s), binary.MaxVarintLen64)]))
	if n <= 0 || n > 1 && h.s[n-1] == 0 {
		if h.err == nil {
			h.err = fmt.Errorf("rpm: %s: number cut short or misspelled", what)
		}
		h.s = ""
		return 0
	}
	h.s = h.s[n:]
	return v
}

// length reads how many entries of at least each bytes follow: one the bytes
// left cannot hold is refused before it sizes anything.
func (h *header) length(what string, each int) int {
	n := h.uvarint(what)
	if n > uint64(len(h.s)/each) {
		h.s, h.err = "", fmt.Errorf("rpm: %s claims %d, %d bytes left in the header", what, n, len(h.s))
		return 0
	}
	return int(n)
}

// str reads one string, a piece of the header's copy.
func (h *header) str(what string) string {
	s := h.s[:h.length(what, 1)]
	h.s = h.s[len(s):]
	return s
}

// list reads one list of strings.
func (h *header) list(what string) (l []string) {
	if n := h.length(what, 1); n > 0 {
		l = make([]string, n)
	}
	for i := range l {
		l[i] = h.str(what)
	}
	return l
}

// PayloadDigest computes the canonical SHA-256 over a payload: file paths,
// modes (unset read as 0644), and contents in path order, in hex.
func PayloadDigest(files []FileEntry) string {
	byPath := func(a, b FileEntry) int { return strings.Compare(a.Path, b.Path) }
	if !slices.IsSortedFunc(files, byPath) {
		// Only files not listed in path order already pay for a sorted copy.
		files = slices.Clone(files)
		slices.SortStableFunc(files, byPath)
	}
	h := sha256.New()
	line := make([]byte, 0, 128) // path NUL mode-in-octal NUL length NUL
	for _, f := range files {
		line = append(append(line[:0], f.Path...), 0)
		line = append(strconv.AppendUint(line, uint64(cmp.Or(f.Mode, 0o644)), 8), 0)
		line = append(strconv.AppendInt(line, int64(len(f.Data)), 10), 0)
		h.Write(line)
		h.Write(f.Data)
	}
	var sum [sha256.Size]byte
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], h.Sum(sum[:0]))
	return string(digest[:])
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
