package dist

import (
	"bytes"
	"cmp"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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

// Manifest builds the manifest of a repository from its NVRA-ordered view.
// Every package in a repository carries its digest (Repository.Add stamps
// it), so concurrent manifest requests only read.
func Manifest(repo *rpm.Repository) []ManifestEntry {
	pkgs := repo.Sorted()
	entries := make([]ManifestEntry, len(pkgs))
	for i, p := range pkgs {
		entries[i] = ManifestEntry{NVRA: p.NVRA(), Size: p.Size, Digest: p.Digest, Source: p.Source}
	}
	return entries
}

// FormatManifest renders manifest lines, one entry per line, trailing
// newline included (appendManifestLine).
func FormatManifest(entries []ManifestEntry) string {
	// Sized once: three separators, the newline, a "-" source and up to
	// nineteen digits of size beside the fields themselves. Escaping that
	// lengthens a name is rare enough to grow for.
	size := 0
	for _, e := range entries {
		size += len(e.NVRA) + len(e.Digest) + len(e.Source) + 24
	}
	b := make([]byte, 0, size)
	for _, e := range entries {
		b = appendManifestLine(b, e.Size, e.Digest, e.Source, e.NVRA)
	}
	return string(b)
}

// appendManifestLine is the one spelling of a manifest line. An empty source
// is written as "-" so every line has exactly four fields. NVRA and source
// are path-escaped so a package name carrying whitespace cannot shear the
// line apart. The NVRA comes whole or as rpm.Metadata.NVRAPieces: escaping
// goes byte by byte and never touches a separator, so either way is the same.
func appendManifestLine(b []byte, size int64, digest, source string, nvra ...string) []byte {
	for _, piece := range nvra {
		b = append(b, url.PathEscape(piece)...)
	}
	b = append(strconv.AppendInt(append(b, ' '), size, 10), ' ')
	b = append(append(b, digest...), ' ')
	return append(append(b, url.PathEscape(cmp.Or(source, "-"))...), '\n')
}

// unescapeField undoes FormatManifest's escaping, tolerating unescaped
// legacy values (a stray % that is not a valid escape passes through raw).
func unescapeField(s string) string {
	if strings.Contains(s, "%") {
		if u, err := url.PathUnescape(s); err == nil {
			return u
		}
	}
	return s
}

// cutField returns the first field of s — empty when there is none — and
// what follows it, delimiting fields by white space as strings.Fields does.
func cutField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		c := s[i]
		if ' ' < c && c < utf8.RuneSelf && start >= 0 {
			i++ // inside a field, the usual byte
			continue
		}
		space, width := c == ' ' || '\t' <= c && c <= '\r', 1
		if c >= utf8.RuneSelf {
			r, w := utf8.DecodeRuneInString(s[i:])
			space, width = unicode.IsSpace(r), w
		}
		if space && start >= 0 {
			return s[start:i], s[i:]
		} else if !space && start < 0 {
			start = i
		}
		i += width
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// ParseManifest parses manifest lines, four fields each: an entry without a
// digest could not be fetched, so a shorter line is refused. It walks the
// text once: the entries' strings are pieces of one copy of it.
func ParseManifest(data []byte) ([]ManifestEntry, error) {
	entries := make([]ManifestEntry, 0, bytes.Count(data, []byte{'\n'})+1)
	for ln, text := 1, string(data); text != ""; ln++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		var fields [4]string
		n, rest := 0, line
		for n < len(fields) {
			if fields[n], rest = cutField(rest); fields[n] == "" {
				break
			}
			n++
		}
		if n == 0 {
			continue
		}
		if n < 4 {
			return nil, fmt.Errorf("dist: manifest line %d: %q has %d fields, want 4", ln, strings.TrimSpace(line), n)
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dist: manifest line %d: bad size %q: %w", ln, fields[1], err)
		}
		e := ManifestEntry{NVRA: unescapeField(fields[0]), Size: size, Digest: fields[2], Source: unescapeField(fields[3])}
		if e.Source == "-" {
			e.Source = ""
		}
		entries = append(entries, e)
	}
	return entries, nil
}
