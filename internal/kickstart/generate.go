package kickstart

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Request carries everything the CGI script derives from the requesting
// node's IP address via SQL queries (§6.1): which appliance root to
// traverse, the node's architecture, and the localization attributes
// substituted into scripts.
type Request struct {
	Appliance string // graph root, e.g. "compute"
	Arch      string // "i386", "athlon", "ia64"
	NodeName  string // e.g. "compute-0-0"
	// Attrs are site/node attributes available to node files as
	// ${Kickstart_*} references, e.g. Kickstart_PrivateKickstartHost.
	Attrs map[string]string
	// NodeAttrs are per-node attributes layered over Attrs (NodeAttrs win
	// on collision). References that resolve from NodeAttrs survive
	// shared-profile memoization (ProfileCache) and are substituted per
	// request, so a thousand nodes of one appliance share one graph
	// traversal.
	NodeAttrs map[string]string
}

// KnownArches lists the processor architectures one Rocks graph supports —
// the Meteor cluster's three ISAs (§6.1).
var KnownArches = []string{"athlon", "i386", "ia64"}

// KnownArch reports whether arch is in KnownArches. The kickstart CGI uses
// it to validate client-supplied architecture values before they reach the
// database.
func KnownArch(arch string) bool { return slices.Contains(KnownArches, arch) }

// Profile is a generated Kickstart description, the structured form of the
// text file anaconda consumes.
type Profile struct {
	NodeName  string
	Appliance string
	Arch      string
	Commands  []string // command-section lines (url, lang, part, ...)
	Packages  []string // %packages, deduplicated, in traversal order
	Pre       []Script
	Post      []Script
	// Modules lists the node files that contributed, in traversal order —
	// useful for diagnostics and the DOT rendering.
	Modules []string
	// Manifest is the file's last section, from its ManifestSection line to
	// the end, as text: the CGI's package resolution (dist writes and reads
	// it). Generate leaves it empty.
	Manifest string
}

// ManifestSection opens the kickstart's package resolution, one manifest
// line per %packages name.
const ManifestSection = "%manifest"

// Generate traverses the framework for the request and assembles a Profile.
// Package lists are deduplicated (first occurrence wins); command lines are
// deduplicated exactly; scripts are concatenated in traversal order.
// Attribute references of the form ${Name} in command lines and scripts are
// replaced from req.Attrs overlaid with req.NodeAttrs; a reference to a
// missing attribute is an error, because a kickstart with a dangling
// reference bricks the install.
func (f *Framework) Generate(req Request) (*Profile, error) {
	if req.Arch == "" {
		req.Arch = "i386"
	}
	attrs := req.Attrs
	if len(req.NodeAttrs) > 0 {
		attrs = make(map[string]string, len(req.Attrs)+len(req.NodeAttrs))
		for k, v := range req.Attrs {
			attrs[k] = v
		}
		for k, v := range req.NodeAttrs {
			attrs[k] = v
		}
	}
	t, err := f.generateTemplate(req.Appliance, req.Arch, attrs)
	if err != nil {
		return nil, err
	}
	return t.instantiate(req.NodeName, nil)
}

// seg is one piece of a compiled template: literal text, or a deferred
// ${ref} attribute reference left for per-node substitution.
type seg struct {
	lit string
	ref string // non-empty means a deferred reference named ref
}

// tmpl is a compiled command line or script body. Shared attributes are
// already folded into the literals; only deferred references remain.
type tmpl struct {
	module string // for error attribution
	segs   []seg
}

// isLiteral reports whether the template has no deferred references, in
// which case instantiation is a free string share.
func (t tmpl) isLiteral() bool { return len(t.segs) == 1 && t.segs[0].ref == "" }

// canonical renders the template with deferred references in ${Name} form —
// a stable dedup key within one shared profile.
func (t tmpl) canonical() string {
	if t.isLiteral() {
		return t.segs[0].lit
	}
	var b strings.Builder
	for _, s := range t.segs {
		if s.ref != "" {
			b.WriteString("${")
			b.WriteString(s.ref)
			b.WriteString("}")
		} else {
			b.WriteString(s.lit)
		}
	}
	return b.String()
}

// instantiate resolves the remaining references from attrs. A reference
// still missing is an error: every ${Name} must resolve somewhere before
// the profile is served.
func (t tmpl) instantiate(attrs map[string]string) (string, error) {
	if t.isLiteral() {
		return t.segs[0].lit, nil
	}
	var b strings.Builder
	for _, s := range t.segs {
		if s.ref == "" {
			b.WriteString(s.lit)
			continue
		}
		val, ok := attrs[s.ref]
		if !ok {
			return "", fmt.Errorf("kickstart: module %q references undefined attribute %q", t.module, s.ref)
		}
		b.WriteString(val)
	}
	return b.String(), nil
}

// compileTemplate expands ${Name} references from attrs in a single pass.
// $$ escapes a literal $; a bare $ not followed by { passes through (shell
// variables in post scripts). References missing from attrs are not an
// error here: they become deferred segments resolved (or rejected) at
// instantiation, which is what lets a memoized shared profile carry
// per-node references like ${Kickstart_PublicHostname}.
func compileTemplate(s string, attrs map[string]string, module string) (tmpl, error) {
	t := tmpl{module: module}
	if !strings.Contains(s, "$") {
		t.segs = []seg{{lit: s}}
		return t, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '$' {
			b.WriteByte(c)
			i++
			continue
		}
		if i+1 < len(s) && s[i+1] == '$' {
			b.WriteByte('$')
			i += 2
			continue
		}
		if i+1 < len(s) && s[i+1] == '{' {
			end := strings.IndexByte(s[i+2:], '}')
			if end < 0 {
				return tmpl{}, fmt.Errorf("kickstart: module %q: unterminated ${ reference", module)
			}
			name := s[i+2 : i+2+end]
			if val, ok := attrs[name]; ok {
				b.WriteString(val)
			} else {
				t.segs = append(t.segs, seg{lit: b.String()})
				b.Reset()
				t.segs = append(t.segs, seg{ref: name})
			}
			i += 2 + end + 1
			continue
		}
		b.WriteByte('$')
		i++
	}
	t.segs = append(t.segs, seg{lit: b.String()})
	return t, nil
}

// substitute expands ${Name} references from attrs. $$ escapes a literal $.
func substitute(s string, attrs map[string]string, module string) (string, error) {
	t, err := compileTemplate(s, attrs, module)
	if err != nil {
		return "", err
	}
	return t.instantiate(nil)
}

// scriptTemplate is a %pre/%post fragment with its body compiled.
type scriptTemplate struct {
	interpreter string
	text        tmpl
}

// profileTemplate is the memoizable shared form of a generated profile:
// everything identical across all nodes of one (appliance, arch,
// shared-attrs) class, with per-node references still deferred. ProfileCache
// stores these; instantiate stamps out the per-node Profile.
type profileTemplate struct {
	appliance string
	arch      string
	modules   []string
	packages  []string
	commands  []tmpl
	pre       []scriptTemplate
	post      []scriptTemplate
	// section was made from the state stamp names; ProfileCache.mu guards both.
	section string
	stamp   uint64
}

// generateTemplate runs the expensive, node-independent part of Generate:
// the graph traversal, package deduplication, and substitution of the
// shared attributes. References not covered by attrs stay deferred.
func (f *Framework) generateTemplate(appliance, arch string, attrs map[string]string) (*profileTemplate, error) {
	nodes, err := f.Traverse(appliance, arch)
	if err != nil {
		return nil, err
	}
	t := &profileTemplate{appliance: appliance, arch: arch}
	seenPkg := map[string]bool{}
	seenCmd := map[string]bool{}
	for _, nf := range nodes {
		t.modules = append(t.modules, nf.Name)
		for _, line := range nf.Main {
			ct, err := compileTemplate(line, attrs, nf.Name)
			if err != nil {
				return nil, err
			}
			if key := ct.canonical(); !seenCmd[key] {
				seenCmd[key] = true
				t.commands = append(t.commands, ct)
			}
		}
		for _, pkg := range nf.Packages {
			if pkg.matches(arch) && !seenPkg[pkg.Name] {
				seenPkg[pkg.Name] = true
				t.packages = append(t.packages, pkg.Name)
			}
		}
		for _, s := range nf.Pre {
			if !s.matches(arch) {
				continue
			}
			ct, err := compileTemplate(s.Text, attrs, nf.Name)
			if err != nil {
				return nil, err
			}
			t.pre = append(t.pre, scriptTemplate{interpreter: s.Interpreter, text: ct})
		}
		for _, s := range nf.Post {
			if !s.matches(arch) {
				continue
			}
			ct, err := compileTemplate(s.Text, attrs, nf.Name)
			if err != nil {
				return nil, err
			}
			t.post = append(t.post, scriptTemplate{interpreter: s.Interpreter, text: ct})
		}
	}
	return t, nil
}

// instantiate stamps a per-node Profile out of the shared template,
// resolving deferred references from nodeAttrs. Command lines are
// re-deduplicated on their final text so instantiation matches what a full
// Generate of the merged attributes would produce.
func (t *profileTemplate) instantiate(nodeName string, nodeAttrs map[string]string) (*Profile, error) {
	p := &Profile{
		NodeName:  nodeName,
		Appliance: t.appliance,
		Arch:      t.arch,
		Packages:  append([]string(nil), t.packages...),
		Modules:   append([]string(nil), t.modules...),
	}
	seenCmd := make(map[string]bool, len(t.commands))
	for _, ct := range t.commands {
		line, err := ct.instantiate(nodeAttrs)
		if err != nil {
			return nil, err
		}
		if !seenCmd[line] {
			seenCmd[line] = true
			p.Commands = append(p.Commands, line)
		}
	}
	for _, s := range t.pre {
		text, err := s.text.instantiate(nodeAttrs)
		if err != nil {
			return nil, err
		}
		p.Pre = append(p.Pre, Script{Interpreter: s.interpreter, Text: text})
	}
	for _, s := range t.post {
		text, err := s.text.instantiate(nodeAttrs)
		if err != nil {
			return nil, err
		}
		p.Post = append(p.Post, Script{Interpreter: s.interpreter, Text: text})
	}
	return p, nil
}

// Render emits the Red Hat-compliant text Kickstart file (Append).
func (p *Profile) Render() string { return string(p.Append(nil)) }

// Append appends the text Kickstart file the node's installer fetches: the
// command section, %packages, %pre and %post, and any %manifest section.
func (p *Profile) Append(b []byte) []byte {
	b = append(append(b, "# Kickstart file for "...), p.NodeName...)
	b = strconv.AppendQuote(append(b, " (appliance "...), p.Appliance)
	b = append(append(append(b, ", arch "...), p.Arch...), ")\n# Generated by the Rocks kickstart CGI from modules: "...)
	b = append(append(b, strings.Join(p.Modules, ", ")...), '\n')
	for _, c := range p.Commands {
		b = append(append(b, c...), '\n')
	}
	b = append(b, "\n%packages\n"...)
	for _, pkg := range p.Packages {
		b = append(append(b, pkg...), '\n')
	}
	b = appendScripts(b, "%pre", p.Pre)
	b = appendScripts(b, "%post", p.Post)
	if p.Manifest != "" {
		b = append(append(b, '\n'), p.Manifest...)
	}
	return b
}

// appendScripts appends one section per script, newline-terminated.
func appendScripts(b []byte, section string, scripts []Script) []byte {
	for _, s := range scripts {
		b = append(append(b, '\n'), section...)
		if s.Interpreter != "" {
			b = append(append(b, " --interpreter "...), s.Interpreter...)
		}
		b = append(append(b, '\n'), s.Text...)
		if !strings.HasSuffix(s.Text, "\n") {
			b = append(b, '\n')
		}
	}
	return b
}

// ParseProfile parses a rendered Kickstart file back into a Profile — the
// installer side of the contract. Only the structure Render emits is
// understood. It reads the text once; scripts and Manifest are pieces of it.
func ParseProfile(text string) (*Profile, error) {
	p := &Profile{}
	lines := &p.Commands // where a plain line goes; nil inside a script
	var (
		scripts *[]Script // the open script's section
		cur     Script
		body    = -1 // where the open script's text begins in text
	)
	flush := func(end int) {
		if body >= 0 {
			cur.Text = strings.TrimRight(text[body:end], "\n")
			*scripts, body = append(*scripts, cur), -1
		}
	}
	for rest := text; rest != ""; {
		at := len(text) - len(rest)
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, ManifestSection):
			flush(at)
			p.Manifest, rest = text[at:], ""
		case strings.HasPrefix(trimmed, "%packages"):
			flush(at)
			lines = &p.Packages
		case strings.HasPrefix(trimmed, "%pre"), strings.HasPrefix(trimmed, "%post"):
			flush(at)
			lines, scripts = nil, &p.Post
			if strings.HasPrefix(trimmed, "%pre") {
				scripts = &p.Pre
			}
			cur, body = Script{}, len(text)-len(rest)
			if _, interpreter, ok := strings.Cut(trimmed, "--interpreter"); ok {
				cur.Interpreter = strings.TrimSpace(interpreter)
			}
		case lines != nil && trimmed != "" && !strings.HasPrefix(trimmed, "#"):
			*lines = append(*lines, trimmed)
		}
	}
	flush(len(text))
	if len(p.Commands) == 0 && len(p.Packages) == 0 {
		return nil, fmt.Errorf("kickstart: text has no command section and no packages; not a kickstart file")
	}
	return p, nil
}

// CommandValue returns the argument of the first command line starting with
// the given directive (e.g. CommandValue("url") → "--url http://...").
func (p *Profile) CommandValue(directive string) (string, bool) {
	for _, c := range p.Commands {
		fields := strings.Fields(c)
		if len(fields) > 0 && fields[0] == directive {
			return strings.TrimSpace(strings.TrimPrefix(c, fields[0])), true
		}
	}
	return "", false
}
