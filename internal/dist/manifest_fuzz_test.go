package dist

import (
	"encoding/hex"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseManifestFields is the parser ParseManifest replaced — a []string of
// lines, a []string of fields per line, url.PathUnescape on every field —
// kept as its oracle: the two must accept the same texts, make the same
// entries of them and refuse the rest in the same words.
func parseManifestFields(data []byte) ([]ManifestEntry, error) {
	unescape := func(s string) string {
		if u, err := url.PathUnescape(s); err == nil {
			return u
		}
		return s
	}
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
		e := ManifestEntry{NVRA: unescape(fields[0]), Size: size}
		if len(fields) >= 4 {
			e.Digest, e.Source = fields[2], unescape(fields[3])
		} else {
			e.Source = unescape(fields[2])
		}
		if e.Source == "-" {
			e.Source = ""
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// FuzzManifest feeds ParseManifest arbitrary bytes: the manifest is what an
// installer and a mirror trust every body against, and it is text a server
// they do not control may have written. ParseManifest must never panic, must
// agree with the field-splitting parser it replaced on every input — entries
// or error text — and must read back exactly what FormatManifest wrote for
// entries whose names carry spaces, percent signs, newlines and bytes that
// are not text at all. The corpus in testdata/fuzz/FuzzManifest is the
// synthetic distribution's manifest, a legacy three-field line, a bad size, a
// lone %, CR-LF line endings, a line of nothing but separators and a line of
// two fields.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseManifest(data)
		want, wantErr := parseManifestFields(data)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseManifest says %v, the field-splitting parser %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ParseManifest made %q, the field-splitting parser %q", got, want)
		}

		// The same bytes, cut into names: up to 24 bytes each, as they come.
		var entries []ManifestEntry
		for rest := data; len(rest) >= 2; {
			n := min(int(rest[0])%24+1, len(rest)-1)
			name := string(rest[1 : 1+n])
			rest = rest[1+n:]
			e := ManifestEntry{NVRA: name, Size: int64(n) << (n + len(rest)%32), Digest: hex.EncodeToString([]byte(name)), Source: name[n/2:]}
			if e.Source == "-" {
				e.Source = "" // how the format spells no source
			}
			entries = append(entries, e)
		}
		back, err := ParseManifest([]byte(FormatManifest(entries)))
		if err != nil || !slices.Equal(back, entries) {
			t.Fatalf("wrote %q, read back %q (%v)", entries, back, err)
		}
	})
}
