package kickstart

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// renderFprintf and parseSplit are Render and ParseProfile as they were
// before they appended and cut — fmt.Fprintf into a strings.Builder, and
// strings.Split with script text grown line by line — kept as their oracles
// for every profile without a %manifest section.
func renderFprintf(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Kickstart file for %s (appliance %q, arch %s)\n", p.NodeName, p.Appliance, p.Arch)
	fmt.Fprintf(&b, "# Generated by the Rocks kickstart CGI from modules: %s\n", strings.Join(p.Modules, ", "))
	for _, c := range p.Commands {
		b.WriteString(c + "\n")
	}
	b.WriteString("\n%packages\n")
	for _, pkg := range p.Packages {
		b.WriteString(pkg + "\n")
	}
	for _, s := range p.Pre {
		writeScriptFprintf(&b, "%pre", s)
	}
	for _, s := range p.Post {
		writeScriptFprintf(&b, "%post", s)
	}
	return b.String()
}

func writeScriptFprintf(b *strings.Builder, section string, s Script) {
	if s.Interpreter != "" {
		fmt.Fprintf(b, "\n%s --interpreter %s\n", section, s.Interpreter)
	} else {
		fmt.Fprintf(b, "\n%s\n", section)
	}
	b.WriteString(s.Text)
	if !strings.HasSuffix(s.Text, "\n") {
		b.WriteByte('\n')
	}
}

func parseSplit(text string) (*Profile, error) {
	p := &Profile{}
	section := "commands"
	var cur *Script
	flush := func() {
		if cur != nil {
			cur.Text = strings.TrimRight(cur.Text, "\n")
			if section == "pre" {
				p.Pre = append(p.Pre, *cur)
			} else {
				p.Post = append(p.Post, *cur)
			}
			cur = nil
		}
	}
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "%packages"):
			flush()
			section = "packages"
			continue
		case strings.HasPrefix(trimmed, "%pre"), strings.HasPrefix(trimmed, "%post"):
			flush()
			if strings.HasPrefix(trimmed, "%pre") {
				section = "pre"
			} else {
				section = "post"
			}
			cur = &Script{}
			if idx := strings.Index(trimmed, "--interpreter"); idx >= 0 {
				cur.Interpreter = strings.TrimSpace(trimmed[idx+len("--interpreter"):])
			}
			continue
		}
		switch section {
		case "commands", "packages":
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			if section == "commands" {
				p.Commands = append(p.Commands, trimmed)
			} else {
				p.Packages = append(p.Packages, trimmed)
			}
		case "pre", "post":
			cur.Text += line + "\n"
		}
	}
	flush()
	if len(p.Commands) == 0 && len(p.Packages) == 0 {
		return nil, fmt.Errorf("kickstart: text has no command section and no packages; not a kickstart file")
	}
	return p, nil
}

// TestRenderAndParseMatchTheirOracles: Render and ParseProfile give what
// they gave before they appended and cut, on every generated profile and on
// texts that stress the sections' edges — blank and CRLF lines, a script at
// the very end with and without its newline, a header inside a script, an
// interpreter, comments — and a file that ends with a %manifest section
// parses as the same file without it plus that section, verbatim, which
// Render writes back byte for byte.
func TestRenderAndParseMatchTheirOracles(t *testing.T) {
	fw := DefaultFramework()
	var texts []string
	for _, app := range []string{"compute", "frontend"} {
		for _, arch := range KnownArches {
			p, err := fw.Generate(Request{Appliance: app, Arch: arch, NodeName: "n-0-0", Attrs: DefaultAttrs("http://10.1.1.1/dist", "10.1.1.1")})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Render(), renderFprintf(p); got != want {
				t.Fatalf("%s/%s: Render differs from its oracle:\n%s\nwant:\n%s", app, arch, got, want)
			}
			texts = append(texts, p.Render())
		}
	}
	texts = append(texts,
		"url --url http://x\n\n%packages\nbash\n# comment\n\n  glibc  \n%pre\n\n  echo a\n\n\n%post --interpreter /bin/bash\nset -e\n%packages\nextra\n",
		"install\r\n%packages\r\nbash\r\n%post\r\necho x\r\n",
		"install\n%post\necho no newline at the end",
		"install\n%post\n",
		"%packages\nbash",
		"install\n%prelude\nnot a %pre section?\n%postscript\nstill a post\n",
	)
	for _, text := range texts {
		got, err := ParseProfile(text)
		want, wantErr := parseSplit(text)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseProfile(%q) = %+v, %v; the oracle %+v, %v", text, got, err, want, wantErr)
		}
		if got.Render() != renderFprintf(got) {
			t.Fatalf("Render of the parse of %q differs from its oracle", text)
		}
		const section = ManifestSection + " --crc32 00000000\nbash-2.05-8.i386 1 d -\n%post\nnot a script\n"
		sealed, err := ParseProfile(text + "\n" + section)
		if err != nil || sealed.Manifest != section {
			t.Fatalf("ParseProfile of %q and a %%manifest section: Manifest %q, %v; want %q", text, sealed.Manifest, err, section)
		}
		sealed.Manifest = ""
		if !reflect.DeepEqual(sealed, got) {
			t.Fatalf("the %%manifest section changed the rest of %q's parse: %+v, want %+v", text, sealed, got)
		}
		sealed.Manifest = section
		if again, err := ParseProfile(sealed.Render()); err != nil || again.Render() != sealed.Render() || again.Render() != got.Render()+"\n"+section {
			t.Fatalf("render → parse → render of %q with its section is not byte-identical", text)
		}
	}
}

// TestParseProfileCostsOnePass: parsing a rendered compute kickstart
// allocates the profile and its lists, not a string per line or per line of
// script.
func TestParseProfileCostsOnePass(t *testing.T) {
	p, err := DefaultFramework().Generate(Request{Appliance: "compute", Arch: "i386", NodeName: "n", Attrs: DefaultAttrs("u", "h")})
	if err != nil {
		t.Fatal(err)
	}
	text := p.Render()
	got := testing.AllocsPerRun(20, func() { ParseProfile(text) })
	want := testing.AllocsPerRun(20, func() { parseSplit(text) })
	t.Logf("ParseProfile: %v allocations for %d bytes; the split parser %v", got, len(text), want)
	if got > 25 || got >= want/2 {
		t.Errorf("ParseProfile allocates %v times, the split parser %v; want at most 25 and under half", got, want)
	}
}
