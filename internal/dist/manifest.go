package dist

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"rocks/internal/rpm"
)

// Digest manifests. A distribution's manifest names every package by NVRA
// together with its size, SHA-256 payload digest, and provenance — one line
// per package:
//
//	name-version-release.arch <size> <digest> <source>
//
// The same format is served over HTTP (RedHat/base/manifest) and written to
// disk (the MANIFEST file of a materialized tree), so a mirror pass, a tree
// verification, and an installing node all check content against the same
// identity. Digests make the hierarchical update pass a delta: a child
// re-fetches only packages whose digest changed, in the spirit of the
// paper's inherit-by-reference symlink tree (§6.2.3).

// ManifestEntry describes one package in a manifest.
type ManifestEntry struct {
	NVRA   string
	Size   int64
	Digest string
	Source string
}

// Manifest builds the sorted manifest of a repository. Every package in a
// repository carries its digest (Repository.Add stamps it), so concurrent
// manifest requests only read.
func Manifest(repo *rpm.Repository) []ManifestEntry {
	var entries []ManifestEntry
	for _, p := range repo.All() {
		entries = append(entries, ManifestEntry{
			NVRA:   p.NVRA(),
			Size:   p.Size,
			Digest: p.Digest,
			Source: p.Source,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].NVRA < entries[j].NVRA })
	return entries
}

// FormatManifest renders manifest lines, one entry per line, trailing
// newline included. An empty source is written as "-" so every line has
// exactly four fields. NVRA and source are path-escaped so a package name
// carrying whitespace cannot shear the whitespace-delimited line apart.
func FormatManifest(entries []ManifestEntry) string {
	// Sized once: three separators, the newline, a "-" source and up to
	// nineteen digits of size beside the fields themselves. Escaping that
	// lengthens a name is rare enough to grow for.
	size := 0
	for _, e := range entries {
		size += len(e.NVRA) + len(e.Digest) + len(e.Source) + 24
	}
	var b strings.Builder
	b.Grow(size)
	for _, e := range entries {
		src := e.Source
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(&b, "%s %d %s %s\n", url.PathEscape(e.NVRA), e.Size, e.Digest, url.PathEscape(src))
	}
	return b.String()
}

// unescapeField undoes FormatManifest's escaping, tolerating unescaped
// legacy values (a stray % that is not a valid escape passes through raw).
func unescapeField(s string) string {
	if u, err := url.PathUnescape(s); err == nil {
		return u
	}
	return s
}

// ParseManifest parses manifest lines. The pre-digest three-field format
// ("NVRA size source") is still accepted — its entries carry an empty
// Digest, and consumers skip digest verification for them.
func ParseManifest(data []byte) ([]ManifestEntry, error) {
	var entries []ManifestEntry
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("dist: manifest line %d: %q has %d fields, want at least 3", ln+1, line, len(fields))
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dist: manifest line %d: bad size %q: %w", ln+1, fields[1], err)
		}
		e := ManifestEntry{NVRA: unescapeField(fields[0]), Size: size}
		if len(fields) >= 4 {
			e.Digest, e.Source = fields[2], unescapeField(fields[3])
		} else {
			// Legacy format: the third field is provenance, no digest.
			e.Source = unescapeField(fields[2])
		}
		if e.Source == "-" {
			e.Source = ""
		}
		entries = append(entries, e)
	}
	return entries, nil
}
