// Package kickstart implements the paper's central contribution (§6.1): a
// framework of XML files describing node software configuration, linked by
// an XML graph into "appliance" definitions, from which Red Hat-compliant
// Kickstart files are generated on the fly per requesting node.
//
// A *node file* (Figure 2) is a small, single-purpose module naming the
// packages and post-installation commands for one service. A *graph file*
// (Figure 3) links modules with directed edges; the roots of the graph are
// appliances such as "compute" and "frontend". Traversing the graph from an
// appliance root, filtered by the requesting node's architecture, collects
// the node files whose union is rendered as a single Kickstart file
// (Figure 4). One graph therefore describes every hardware and software
// variant in the cluster.
package kickstart

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
)

// PackageRef names one RPM a node file pulls in, optionally restricted to a
// set of architectures ("i386,ia64") the way Rocks node files guard
// arch-specific packages.
type PackageRef struct {
	Name   string
	Arches []string // nil means all architectures
}

// matches reports whether the ref applies to the given architecture.
func (p PackageRef) matches(arch string) bool { return archListMatches(p.Arches, arch) }

// Script is a %pre or %post fragment.
type Script struct {
	Interpreter string // e.g. "/bin/sh" (default), "/usr/bin/python"
	Text        string
	Arches      []string
}

func (s Script) matches(arch string) bool { return archListMatches(s.Arches, arch) }

func archListMatches(arches []string, arch string) bool {
	return len(arches) == 0 || slices.Contains(arches, arch)
}

// NodeFile is one parsed XML module.
type NodeFile struct {
	Name        string // module name, e.g. "dhcp-server"; the graph refers to this
	Description string
	Packages    []PackageRef
	Main        []string // lines merged into the Kickstart command section
	Pre         []Script
	Post        []Script
}

// xmlNode mirrors the on-disk XML schema of a node file. The paper's
// Figure 2 (upper-cased <KICKSTART> tags) and the lower-case spelling used
// by later Rocks releases both parse: encoding/xml matching here is made
// case-insensitive by normalizing the input.
type xmlNode struct {
	XMLName     xml.Name     `xml:"kickstart"`
	Description string       `xml:"description"`
	Packages    []xmlPackage `xml:"package"`
	Main        []string     `xml:"main"`
	Pre         []xmlScript  `xml:"pre"`
	Post        []xmlScript  `xml:"post"`
}

type xmlPackage struct {
	Arch string `xml:"arch,attr"`
	Name string `xml:",chardata"`
}

type xmlScript struct {
	Arch        string `xml:"arch,attr"`
	Interpreter string `xml:"interpreter,attr"`
	Text        string `xml:",chardata"`
}

// ParseNode parses a node file. The name is the module name the graph uses
// (conventionally the file's base name without ".xml").
func ParseNode(name string, r io.Reader) (*NodeFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kickstart: reading node %q: %w", name, err)
	}
	var xn xmlNode
	dec := xml.NewDecoder(strings.NewReader(string(data)))
	// The paper's Figure 2 uses upper-case tags (<KICKSTART>, <PACKAGE>);
	// normalize element names to lower case while leaving content alone.
	dec.Strict = false
	if err := decodeCaseInsensitive(dec, &xn); err != nil {
		return nil, fmt.Errorf("kickstart: parsing node %q: %w", name, err)
	}
	nf := &NodeFile{Name: name, Description: strings.TrimSpace(xn.Description)}
	for _, p := range xn.Packages {
		pkg := strings.TrimSpace(p.Name)
		if pkg == "" {
			return nil, fmt.Errorf("kickstart: node %q has an empty <package>", name)
		}
		nf.Packages = append(nf.Packages, PackageRef{Name: pkg, Arches: splitArches(p.Arch)})
	}
	for _, m := range xn.Main {
		for _, line := range strings.Split(m, "\n") {
			if l := strings.TrimSpace(line); l != "" {
				nf.Main = append(nf.Main, l)
			}
		}
	}
	for _, s := range xn.Pre {
		nf.Pre = append(nf.Pre, scriptFromXML(s))
	}
	for _, s := range xn.Post {
		nf.Post = append(nf.Post, scriptFromXML(s))
	}
	return nf, nil
}

func scriptFromXML(s xmlScript) Script {
	return Script{
		Interpreter: strings.TrimSpace(s.Interpreter),
		Text:        dedent(s.Text),
		Arches:      splitArches(s.Arch),
	}
}

func splitArches(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// dedent trims blank leading/trailing lines and removes the common leading
// whitespace, so scripts indented for XML readability emit clean shell.
func dedent(s string) string {
	lines := strings.Split(s, "\n")
	// Drop leading/trailing blank lines.
	for len(lines) > 0 && strings.TrimSpace(lines[0]) == "" {
		lines = lines[1:]
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return ""
	}
	common := -1
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			continue
		}
		indent := len(l) - len(strings.TrimLeft(l, " \t"))
		if common < 0 || indent < common {
			common = indent
		}
	}
	if common <= 0 {
		return strings.Join(lines, "\n")
	}
	for i, l := range lines {
		if len(l) >= common {
			lines[i] = l[common:]
		} else {
			lines[i] = strings.TrimLeft(l, " \t")
		}
	}
	return strings.Join(lines, "\n")
}

// decodeCaseInsensitive decodes XML treating element names
// case-insensitively (the paper's files are upper-case, later Rocks files
// lower-case).
func decodeCaseInsensitive(dec *xml.Decoder, v interface{}) error {
	// Re-tokenize, lower-casing element names, then decode the result.
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			t.Name.Local = strings.ToLower(t.Name.Local)
			for i := range t.Attr {
				t.Attr[i].Name.Local = strings.ToLower(t.Attr[i].Name.Local)
			}
			if err := enc.EncodeToken(t); err != nil {
				return err
			}
		case xml.EndElement:
			t.Name.Local = strings.ToLower(t.Name.Local)
			if err := enc.EncodeToken(t); err != nil {
				return err
			}
		case xml.ProcInst, xml.Directive:
			// Skip <?XML ...?> declarations; Figure 2's "<?XML" is not
			// valid XML 1.0, so we drop declarations entirely.
		default:
			if err := enc.EncodeToken(tok); err != nil {
				return err
			}
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	return xml.Unmarshal([]byte(b.String()), v)
}
