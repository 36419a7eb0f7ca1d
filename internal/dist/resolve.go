package dist

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// resolve is the one resolution rule, applied on the frontend (§6.2): for
// each name, in order, the newest version built for an arch that installs on
// arch; on a tie, the first in NVRA order (the manifest's); no Requires
// closure. A package answers to the name and version its NVRA spells
// (rpm.ParseNVRA), so one whose version or release holds a "-" answers to a
// longer name than its own. The first name with no package is the error.
func resolve(repo *rpm.Repository, arch string, names []string, each func(*rpm.Package)) (stamp uint64, missing error) {
	stamp = repo.ReadNamed(func(byName map[string][]*rpm.Package) {
		for _, name := range names {
			var best *rpm.Package
			var version, release string // best's, as its NVRA spells them
			for cut := len(name); cut >= 0; cut = strings.LastIndexByte(name[:cut], '-') {
				for _, p := range byName[name[:cut]] {
					spelt, built, v, r := p.Name, p.Arch, p.Version.Version, p.Version.Release
					if spelt == "" || strings.Contains(v, "-") || strings.Contains(r, "-") || strings.Contains(built, ".") {
						m, err := rpm.ParseNVRA(p.NVRA())
						if err != nil {
							continue
						}
						spelt, built, v, r = m.Name, m.Arch, m.Version.Version, m.Version.Release
					} else if cut < len(name) {
						continue // it spells its own, shorter name
					}
					if spelt != name || !rpm.ArchCompatible(arch, built) {
						continue
					}
					if c := cmp.Or(rpm.Vercmp(v, version), rpm.Vercmp(r, release)); best == nil || c > 0 || c == 0 && p.NVRA() < best.NVRA() {
						best, version, release = p, v, r
					}
				}
			}
			if best != nil {
				each(best)
			} else if missing == nil {
				missing = fmt.Errorf("installer: package %q not present in distribution", name)
			}
		}
	})
	return stamp, missing
}

// resolutionHeader opens the %manifest section a kickstart file ends with:
// one manifest line per %packages name, sealed with their CRC-32 so that a
// bit flipped in transit is a torn kickstart, not a digest no source can
// match, and a name without a line is a package the distribution lacks.
const resolutionHeader = "\n" + kickstart.ManifestSection + " --crc32 "

// AppendResolution appends the %manifest section resolving names for a node
// of arch; the error names the first name with no package (and no line).
func (s *Server) AppendResolution(b []byte, arch string, names []string) ([]byte, error) {
	b, _, err := s.appendResolution(b, arch, names)
	return b, err
}

// Section is the section AppendResolution appends, from its ManifestSection
// line on, and the rpm.Repository.Stamp of the state it resolves.
func (s *Server) Section(arch string, names []string) (section string, stamp uint64) {
	b, stamp, _ := s.appendResolution(nil, arch, names)
	return string(b[1:]), stamp
}

func (s *Server) appendResolution(b []byte, arch string, names []string) (_ []byte, stamp uint64, err error) {
	b = append(b, resolutionHeader+"00000000\n"...)
	start := len(b)
	stamp, err = resolve(s.repo(), arch, names, func(p *rpm.Package) {
		nvra := p.NVRAPieces()
		b = appendManifestLine(b, p.Size, p.Digest, p.Source, nvra[:]...)
	})
	var sum [4]byte
	hex.Encode(b[start-9:start-1], binary.BigEndian.AppendUint32(sum[:0], crc32.ChecksumIEEE(b[start:])))
	return b, stamp, err
}

// ReadResolution reads a kickstart's %manifest section (Profile.Manifest)
// into one entry per name, in order; their strings are pieces of section. A
// section missing, failing its seal or listing a package for no name in turn
// is torn: transient, and nothing comes back. A name the sealed section has
// no line for is missing from the distribution, permanently.
func ReadResolution(section string, names []string) ([]ManifestEntry, error) {
	header, lines, _ := strings.Cut(section, "\n")
	seal, ok := strings.CutPrefix(header, resolutionHeader[1:])
	if sum, err := strconv.ParseUint(seal, 16, 32); !ok || err != nil || len(seal) != 8 || uint32(sum) != crcOf(lines) {
		return nil, Transient(fmt.Errorf("installer: the kickstart's %s section is torn or missing", kickstart.ManifestSection))
	}
	entries := make([]ManifestEntry, 0, len(names))
	var torn error
	err := scanManifest(lines, func(e ManifestEntry) {
		for len(entries) < len(names) && !spells(e.NVRA, names[len(entries)]) {
			entries = append(entries, ManifestEntry{}) // a name with no line
		}
		if len(entries) == len(names) {
			torn = cmp.Or(torn, fmt.Errorf("installer: the kickstart's %s section lists %s for no package it names", kickstart.ManifestSection, e.NVRA))
		} else if torn == nil {
			entries = append(entries, e)
		}
	})
	if err = cmp.Or(err, torn); err != nil {
		return nil, Transient(err)
	}
	for i, name := range names {
		if i == len(entries) || entries[i].NVRA == "" {
			return nil, fmt.Errorf("installer: package %q not present in distribution", name)
		}
	}
	return entries, nil
}

// spells reports whether rpm.ParseNVRA reads name out of nvra: name, "-",
// then a version and release with one "-" between them before the last ".".
func spells(nvra, name string) bool {
	rest, ok := strings.CutPrefix(nvra, name)
	dot := strings.LastIndexByte(rest, '.')
	return ok && name != "" && dot > 0 && rest[0] == '-' && strings.Count(rest[1:dot], "-") == 1
}

// crcOf is crc32.ChecksumIEEE of s, copied through a small buffer rather
// than converted whole.
func crcOf(s string) (sum uint32) {
	var buf [1024]byte
	for s != "" {
		n := copy(buf[:], s)
		sum, s = crc32.Update(sum, crc32.IEEETable, buf[:n]), s[n:]
	}
	return sum
}
