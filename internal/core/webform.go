package core

import (
	"fmt"
	"html/template"
	"net/http"

	"rocks/internal/kickstart"
)

// The frontend web form (§7): "the frontend Kickstart file is built from a
// simple web form". GET /install/frontend-form renders the form; submitting
// it returns a complete frontend kickstart file localized with the site's
// answers — the file a user writes to their boot floppy.

var frontendFormTmpl = template.Must(template.New("form").Parse(`<!DOCTYPE html>
<html><head><title>Rocks Frontend Kickstart Builder</title></head>
<body>
<h1>Build a Rocks frontend kickstart</h1>
<form method="GET" action="/install/frontend-form">
<input type="hidden" name="generate" value="1">
<table>
<tr><td>Cluster name</td><td><input name="cluster" value="{{.Cluster}}"></td></tr>
<tr><td>Public domain</td><td><input name="domain" value="{{.Domain}}"></td></tr>
<tr><td>Timezone</td><td><input name="timezone" value="{{.Timezone}}"></td></tr>
<tr><td>Root password (crypted)</td><td><input name="rootpw" value="{{.RootPW}}"></td></tr>
<tr><td>Distribution URL</td><td><input name="disturl" value="{{.DistURL}}" size="48"></td></tr>
</table>
<input type="submit" value="Generate kickstart">
</form>
</body></html>
`))

type frontendFormValues struct {
	Cluster  string
	Domain   string
	Timezone string
	RootPW   string
	DistURL  string
}

// frontendForm serves the §7 web form and, on generate=1, the rendered
// frontend kickstart file.
func (c *Cluster) frontendForm(w http.ResponseWriter, r *http.Request) {
	vals := frontendFormValues{
		Cluster:  c.cfg.Name,
		Domain:   "local",
		Timezone: "America/Los_Angeles",
		RootPW:   "$1$rocks$encrypted",
		DistURL:  c.baseURL + "/install/dist",
	}
	if r.FormValue("generate") != "1" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		frontendFormTmpl.Execute(w, vals)
		return
	}
	attrs := kickstart.DefaultAttrs(formOr(r, "disturl", vals.DistURL), FrontendIP)
	attrs["Kickstart_Timezone"] = formOr(r, "timezone", vals.Timezone)
	attrs["Kickstart_RootPW"] = formOr(r, "rootpw", vals.RootPW)
	attrs["Kickstart_PublicHostname"] = "frontend-0." + formOr(r, "domain", vals.Domain)
	profile, err := c.Dist.Framework.Generate(kickstart.Request{
		Appliance: "frontend",
		Arch:      "i386",
		NodeName:  "frontend-0",
		Attrs:     attrs,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set("Content-Disposition", `attachment; filename="ks.cfg"`)
	fmt.Fprint(w, profile.Render())
}
