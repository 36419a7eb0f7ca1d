// Package rpm implements the package-management substrate that Rocks builds
// on: versioned binary packages (name-version-release-arch), the rpmvercmp
// version-ordering algorithm used to decide which of two packages is newer,
// a binary package file format (a header and a payload, one encoder and one
// decoder: package.go), repositories, and a per-node database of installed
// packages.
//
// The paper's management strategy (§5) rests on three rules, the first of
// which is "all software deployed on Rocks clusters are in RPMs". This
// package supplies that contract: packages carry enough metadata for
// rocks-dist to resolve duplicate versions (keeping only the newest, §6.2.1)
// and enough payload for the simulated installer to materialize a node's
// root filesystem.
package rpm

import (
	"fmt"
	"strings"
)

// Version identifies one release of a package. It mirrors RPM's EVR triple:
// an optional Epoch that trumps everything, an upstream Version, and a
// packaging Release.
type Version struct {
	Epoch   int    // 0 unless explicitly set; higher epoch always wins
	Version string // upstream version, e.g. "3.0.6"
	Release string // package release, e.g. "5" or "27.7.x"
}

// String renders the version as [epoch:]version[-release].
func (v Version) String() string {
	s := v.Version
	if v.Release != "" {
		s += "-" + v.Release
	}
	if v.Epoch != 0 {
		s = fmt.Sprintf("%d:%s", v.Epoch, s)
	}
	return s
}

// ParseEVR parses "[epoch:]version[-release]" into a Version.
func ParseEVR(s string) (Version, error) {
	var v Version
	rest := s
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		var epoch int
		if _, err := fmt.Sscanf(rest[:i], "%d", &epoch); err != nil {
			return v, fmt.Errorf("rpm: bad epoch in %q: %v", s, err)
		}
		v.Epoch = epoch
		rest = rest[i+1:]
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		v.Version = rest[:i]
		v.Release = rest[i+1:]
	} else {
		v.Version = rest
	}
	if v.Version == "" {
		return v, fmt.Errorf("rpm: empty version in %q", s)
	}
	return v, nil
}

// Compare orders two Versions the way RPM does: epoch first, then
// rpmvercmp on the version, then rpmvercmp on the release. It returns
// -1 if a is older than b, 0 if they are equal, and +1 if a is newer.
func Compare(a, b Version) int {
	switch {
	case a.Epoch < b.Epoch:
		return -1
	case a.Epoch > b.Epoch:
		return 1
	}
	if c := Vercmp(a.Version, b.Version); c != 0 {
		return c
	}
	return Vercmp(a.Release, b.Release)
}

// Vercmp implements the rpmvercmp segment-comparison algorithm. Strings are
// split into alternating runs of digits and letters; separators only delimit
// segments. Numeric segments compare as integers (leading zeros ignored), a
// numeric segment is always newer than an alphabetic one, and a tilde sorts
// before everything, including the end of the string (so "1.0~rc1" < "1.0").
func Vercmp(a, b string) int {
	if a == b {
		return 0
	}
	ia, ib := 0, 0
	for ia < len(a) || ib < len(b) {
		// Skip separators (anything that is not alphanumeric or '~').
		for ia < len(a) && !isAlnum(a[ia]) && a[ia] != '~' {
			ia++
		}
		for ib < len(b) && !isAlnum(b[ib]) && b[ib] != '~' {
			ib++
		}
		// Tilde sorts before everything.
		ta := ia < len(a) && a[ia] == '~'
		tb := ib < len(b) && b[ib] == '~'
		if ta || tb {
			if ta && tb {
				ia++
				ib++
				continue
			}
			if ta {
				return -1
			}
			return 1
		}
		if ia >= len(a) || ib >= len(b) {
			break
		}
		// Grab the next segment from each: a run of digits or letters.
		var sa, sb string
		numeric := isDigit(a[ia])
		if numeric {
			sa, ia = takeRun(a, ia, isDigit)
		} else {
			sa, ia = takeRun(a, ia, isAlpha)
		}
		if isDigit(b[ib]) {
			sb, ib = takeRun(b, ib, isDigit)
		} else {
			sb, ib = takeRun(b, ib, isAlpha)
		}
		if sb == "" {
			// Different segment types: numeric beats alphabetic.
			if numeric {
				return 1
			}
			return -1
		}
		if numeric != isDigit(sb[0]) {
			if numeric {
				return 1
			}
			return -1
		}
		if numeric {
			sa = strings.TrimLeft(sa, "0")
			sb = strings.TrimLeft(sb, "0")
			if len(sa) != len(sb) {
				if len(sa) > len(sb) {
					return 1
				}
				return -1
			}
		}
		if c := strings.Compare(sa, sb); c != 0 {
			return c
		}
	}
	// One string ran out of segments: the longer one is newer.
	switch {
	case ia < len(a):
		return 1
	case ib < len(b):
		return -1
	}
	return 0
}

func takeRun(s string, i int, class func(byte) bool) (string, int) {
	start := i
	for i < len(s) && class(s[i]) {
		i++
	}
	return s[start:i], i
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isAlnum(c byte) bool { return isDigit(c) || isAlpha(c) }
