package dist

import (
	"encoding/hex"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rocks/internal/rpm"
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
		if len(fields) < 4 {
			return nil, fmt.Errorf("dist: manifest line %d: %q has %d fields, want 4", ln+1, line, len(fields))
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dist: manifest line %d: bad size %q: %w", ln+1, fields[1], err)
		}
		e := ManifestEntry{NVRA: unescape(fields[0]), Size: size, Digest: fields[2], Source: unescape(fields[3])}
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
// are not text at all. The repository those bytes' lines describe must be
// resolved by the frontend as the manifest rule resolves its served manifest
// (checkResolution), or refused in its words. The corpus in testdata/fuzz/FuzzManifest is the
// synthetic distribution's manifest, a pre-digest three-field line (which
// both must refuse), a bad size, a lone %, CR-LF line endings, a line of
// nothing but separators and a line of two fields, and one file (fast-*) for
// each way a line misses the scanner's whole-field path: two spaces, a tab, a
// byte that is not ASCII, a space at either end, a % escape and a fifth field.
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

		// The repository those entries describe, resolved by the frontend for
		// a node of each kind of architecture and held to the manifest rule
		// over its served manifest (checkResolution): every name a line
		// spells, the names that resolve, and those with one nothing spells.
		repo := rpm.NewRepository("fuzz")
		var names []string
		for _, e := range got {
			if m, err := rpm.ParseNVRA(e.NVRA); err == nil {
				m.Size, m.Digest, m.Source = e.Size, e.Digest, e.Source
				repo.Add(&rpm.Package{Metadata: m})
				names = append(names, m.Name)
			}
		}
		srv := NewRepoServer(repo)
		for _, arch := range []string{rpm.ArchI386, rpm.ArchAthlon, "alpha"} {
			found := slices.DeleteFunc(slices.Clone(names), func(name string) bool {
				_, err := srv.AppendResolution(nil, arch, []string{name})
				return err != nil
			})
			for _, ask := range [][]string{names, found, append(found, "no-such-package")} {
				checkResolution(t, repo, arch, ask)
			}
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
