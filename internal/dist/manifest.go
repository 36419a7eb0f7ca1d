package dist

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
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
		b = appendPathEscaped(b, piece)
	}
	b = append(strconv.AppendInt(append(b, ' '), size, 10), ' ')
	b = append(append(b, digest...), ' ')
	return append(appendPathEscaped(b, cmp.Or(source, "-")), '\n')
}

// pathKept[c] says url.PathEscape leaves byte c as it is.
var pathKept = func() (kept [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.~$&+:=@") {
		kept[c] = true
	}
	return kept
}()

// appendPathEscaped appends s as url.PathEscape spells it, making no string.
// Byte by byte: a manifest line's pieces average four bytes, too short for a
// copy per run of kept bytes (a memmove call each) to pay.
func appendPathEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; pathKept[c] {
			b = append(b, c)
		} else {
			b = append(b, '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&15])
		}
	}
	return b
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
		for i += width; start >= 0 && i < len(s) && ' ' < s[i] && s[i] < utf8.RuneSelf; i++ {
			// inside a field, the usual byte
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// wholeFields splits a line of four runs of printable ASCII with one space
// between them, as FormatManifest writes every line, where cutField would.
// It reports false for any other line, which cutField then reads.
func wholeFields(line string, fields *[4]string) bool {
	n, start := 0, 0
	for i := printable(line); i < len(line); i += 1 + printable(line[i+1:]) {
		if line[i] != ' ' || i == start || n == len(fields)-1 {
			return false
		}
		fields[n], n, start = line[start:i], n+1, i+1
	}
	fields[n] = line[start:]
	return n == len(fields)-1 && start < len(line)
}

// printable is how many of s's leading bytes are printable ASCII, '!' to
// '~', eight at a time: the lowest byte out of range sets its top bit in x,
// x-'!' or x+1, and no byte below it borrows or carries.
func printable(s string) int {
	const ones = 0x0101010101010101
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if out := (x | (x - '!'*ones) | (x + ones)) & (0x80 * ones); out != 0 {
			return i + bits.TrailingZeros64(out)/8
		}
	}
	for i < len(s) && s[i]-'!' <= '~'-'!' {
		i++
	}
	return i
}

// scanManifest is the one manifest parser: it walks the text once and hands
// each line's entry, its strings pieces of the text, to each. Blank lines
// are skipped; a line of fewer than four fields (an entry without a digest
// could not be fetched) or with a bad size stops it, naming the line.
func scanManifest(text string, each func(ManifestEntry)) error {
	for ln := 1; text != ""; ln++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		var fields [4]string
		n := len(fields)
		if !wholeFields(line, &fields) {
			rest := line
			for n = 0; n < len(fields); n++ {
				if fields[n], rest = cutField(rest); fields[n] == "" {
					break
				}
			}
		}
		if n == 0 {
			continue
		}
		if n < 4 {
			return fmt.Errorf("dist: manifest line %d: %q has %d fields, want 4", ln, strings.TrimSpace(line), n)
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("dist: manifest line %d: bad size %q: %w", ln, fields[1], err)
		}
		e := ManifestEntry{NVRA: unescapeField(fields[0]), Size: size, Digest: fields[2], Source: unescapeField(fields[3])}
		if e.Source == "-" {
			e.Source = ""
		}
		each(e)
	}
	return nil
}

// ParseManifest parses manifest lines (scanManifest). The entries' strings
// are pieces of one copy of the text.
func ParseManifest(data []byte) ([]ManifestEntry, error) {
	entries := make([]ManifestEntry, 0, bytes.Count(data, []byte{'\n'})+1)
	if err := scanManifest(string(data), func(e ManifestEntry) { entries = append(entries, e) }); err != nil {
		return nil, err
	}
	return entries, nil
}
