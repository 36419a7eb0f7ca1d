package rocks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// srcFile is one file of the repository the guards read.
type srcFile struct {
	path string // slash-separated, relative to the repository root
	text string
	ast  *ast.File // non-test Go files only
}

func (f srcFile) isGo() bool         { return strings.HasSuffix(f.path, ".go") }
func (f srcFile) isTest() bool       { return strings.HasSuffix(f.path, "_test.go") }
func (f srcFile) in(dir string) bool { return strings.HasPrefix(f.path, dir+"/") }

// readTree reads every Go file, workflow and document under docs/, parsing
// the non-test Go files. This file is left out: it spells every name it
// forbids.
func readTree(t *testing.T, fset *token.FileSet) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if path == "guards_test.go" || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".yml") || strings.HasPrefix(path, "docs/")) {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f := srcFile{path: path, text: string(text)}
		if f.isGo() && !f.isTest() {
			if f.ast, err = parser.ParseFile(fset, path, text, 0); err != nil {
				return err
			}
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// pkgCall reports whether n calls pkg.name for one of names.
func pkgCall(n ast.Node, pkg string, names ...string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name)
}

// methodCall returns the method name of a call x.m(...), or "".
func methodCall(n ast.Node) (*ast.CallExpr, string) {
	if call, ok := n.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return call, sel.Sel.Name
		}
	}
	return nil, ""
}

// endsAtListing reports whether a URL expression ends at the package
// directory itself — the RedHat/RPMS/ listing, not a file under it.
func endsAtListing(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.BinaryExpr:
			e = x.Y
		case *ast.Ident:
			return x.Name == "rpmsPath"
		case *ast.BasicLit:
			return x.Kind == token.STRING && strings.HasSuffix(strings.Trim(x.Value, "\"`"), "RedHat/RPMS/")
		default:
			return false
		}
	}
}

// TestStructuralGuards holds the tree to decisions earlier changes made and
// DESIGN.md records: what was collapsed to one stays one, and what was
// retired does not come back. A failure names the file and line.
func TestStructuralGuards(t *testing.T) {
	fset := token.NewFileSet()
	files := readTree(t, fset)
	inspect := func(t *testing.T, keep func(srcFile) bool, visit func(n ast.Node) string) {
		t.Helper()
		for _, f := range files {
			if f.ast == nil || !keep(f) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if n != nil {
					if why := visit(n); why != "" {
						t.Errorf("%s: %s", fset.Position(n.Pos()), why)
					}
				}
				return true
			})
		}
	}
	all := func(srcFile) bool { return true }

	t.Run("no context.TODO", func(t *testing.T) {
		// Every long-running path takes a real context threaded from the
		// cluster root; a context.TODO() punts on propagation.
		inspect(t, all, func(n ast.Node) string {
			if pkgCall(n, "context", "TODO") {
				return "context.TODO() in non-test code; thread a real context instead"
			}
			return ""
		})
	})

	t.Run("one client per wire protocol", func(t *testing.T) {
		// The distribution protocol has one client (dist.Fetcher) and the
		// control plane one (apiclient.Client); nothing else builds a
		// request. Exempt: cluster-health's /metrics scrape (Prometheus text
		// is neither protocol) and the benchmark harness, which measures
		// from outside.
		exempt := []string{"internal/dist", "internal/apiclient", "internal/bench", "cmd/rocks-bench", "cmd/cluster-health"}
		inspect(t, func(f srcFile) bool {
			for _, dir := range exempt {
				if f.in(dir) {
					return false
				}
			}
			return true
		}, func(n ast.Node) string {
			if pkgCall(n, "http", "NewRequest", "NewRequestWithContext", "Get", "Post", "Head", "PostForm") {
				return "hand-rolled HTTP request; use dist.Fetcher or apiclient.Client"
			}
			if call, m := methodCall(n); m == "Do" && len(call.Args) == 1 {
				if id, ok := call.Args[0].(*ast.Ident); ok && strings.HasPrefix(id.Name, "req") {
					return "hand-rolled HTTP request; use dist.Fetcher or apiclient.Client"
				}
			}
			return ""
		})
	})

	t.Run("one way to pull packages", func(t *testing.T) {
		// The client pulls a set of packages one way: the verified bundle
		// stream, resumed where it stopped (Fetcher.Stream). The per-file
		// client verb, the mirror's worker pool and any client-side read of
		// the unverified RedHat/RPMS/ listing are retired; the server still
		// serves both for a plain HTTP client.
		inspect(t, all, func(n ast.Node) string {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Name.Name == "Package" && x.Recv != nil && strings.Contains(typeNames(x.Recv), "Fetcher") {
					return "Fetcher.Package is retired; pull through Fetcher.Packages and Fetcher.Stream"
				}
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok && x.Name.Name == "MirrorOptions" {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "Workers" {
								return "MirrorOptions.Workers is retired: a mirror pass is one stream"
							}
						}
					}
				}
			}
			// A GET of the package directory: Get, or open with any method
			// but the bundle verb's POST.
			call, m := methodCall(n)
			if m != "Get" && m != "open" {
				return ""
			}
			for _, arg := range call.Args {
				if sel, ok := arg.(*ast.SelectorExpr); ok && sel.Sel.Name == "MethodPost" {
					return ""
				}
			}
			for _, arg := range call.Args {
				if endsAtListing(arg) {
					return "a client read of the RedHat/RPMS/ listing: an index comes from the digest manifest only"
				}
			}
			return ""
		})
	})

	t.Run("one fleet model", func(t *testing.T) {
		// internal/experiments has one simulator (DESIGN.md §10): exactly
		// one non-test line there builds a simnet.Simulation.
		n := 0
		inspect(t, func(f srcFile) bool { return f.in("internal/experiments") }, func(node ast.Node) string {
			if pkgCall(node, "simnet", "New") {
				n++
			}
			return ""
		})
		if n != 1 {
			t.Errorf("internal/experiments builds %d simulations; RunInstallCurve's is the only one", n)
		}
	})

	t.Run("one executor", func(t *testing.T) {
		// clusterdb reads rows in one place (DESIGN.md §13): query.each is
		// the only nested-loop join, aggState.add the only accumulator, and
		// appendKeyPart the only spelling of the bucket-key tags.
		var joins, accumulators, keyFiles int
		keyTag := regexp.MustCompile(`"\\x00[SI]`)
		for _, f := range files {
			if f.ast == nil || !f.in("internal/clusterdb") {
				continue
			}
			joins += strings.Count(f.text, "func(depth int) error")
			accumulators += strings.Count(f.text, "st.seen = true")
			if keyTag.MatchString(f.text) {
				keyFiles++
			}
		}
		if joins != 1 || accumulators != 1 || keyFiles != 1 {
			t.Errorf("internal/clusterdb has %d nested-loop joins, %d aggregate accumulators and the key tags spelled in %d files; want one of each",
				joins, accumulators, keyFiles)
		}
	})

	t.Run("one composition root", func(t *testing.T) {
		// core.Cluster builds and wires the subsystems and owns the Close
		// order (DESIGN.md §14); none of them holds the cluster or is handed
		// it: no core type but Cluster has a *Cluster field, and no function
		// but New and Cluster's methods takes or returns one.
		mentions := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if star, ok := n.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Cluster" {
						found = true
					}
				}
				return !found
			})
			return found
		}
		inspect(t, func(f srcFile) bool { return f.in("internal/core") }, func(n ast.Node) string {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok && x.Name.Name != "Cluster" && mentions(st) {
					return x.Name.Name + " holds a *Cluster; give it only what it uses"
				}
			case *ast.FuncDecl:
				if (x.Recv != nil && typeNames(x.Recv) == "Cluster") || (x.Recv == nil && x.Name.Name == "New") {
					return ""
				}
				if mentions(x.Type) {
					return x.Name.Name + " takes or returns a *Cluster; only New and Cluster's methods may"
				}
			}
			return ""
		})
	})

	t.Run("one health loop", func(t *testing.T) {
		// Remediation is one loop (DESIGN.md §14): the supervisor probes
		// through its monitor on its own tick and reads the classification
		// back directly. The monitor is a classifier that starts no
		// goroutine and owns no ticker. The TCP listeners are the frontend's
		// public one and eKV's; relays listen on the private network.
		inspect(t, func(f srcFile) bool { return f.in("internal/monitor") }, func(n ast.Node) string {
			if _, ok := n.(*ast.GoStmt); ok {
				return "a go statement in internal/monitor; the owner's loop calls Probe"
			}
			if pkgCall(n, "time", "NewTicker") {
				return "a ticker in internal/monitor; the owner's loop sets the pace"
			}
			return ""
		})
		listeners := []string{"internal/core/cluster.go", "internal/ekv/ekv.go"}
		inspect(t, func(f srcFile) bool { return !slices.Contains(listeners, f.path) }, func(n ast.Node) string {
			if pkgCall(n, "net", "Listen") {
				return "a net.Listen outside the frontend's public listener and eKV"
			}
			return ""
		})
	})

	t.Run("the supervisor decides in one pure function", func(t *testing.T) {
		// The remediation policy is decide (DESIGN.md §14): what a tick knows
		// of a machine in, the next record and an action out. tick gathers
		// and applies; decide takes no lock, reads no clock, reaches no
		// supervisor or remediation state and calls no PDU, PBS, bus or relay.
		forbidden := []string{"mu", "pdu", "pbs", "events", "relays", "PDU", "PBS", "Publish", "HardCycle", "SetOffline", "withdraw", "quarantine"}
		found := 0
		inspect(t, func(f srcFile) bool { return f.path == "internal/core/supervisor.go" }, func(n ast.Node) string {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Name.Name != "decide" {
				return ""
			}
			found++
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				why := ""
				if pkgCall(n, "time", "Now") {
					why = "time.Now in decide; now is an input"
				} else if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "s" || id.Name == "m") {
						why = id.Name + "." + sel.Sel.Name + " in decide; it sees only its record and its input"
					} else if slices.Contains(forbidden, sel.Sel.Name) {
						why = "." + sel.Sel.Name + " in decide; locks and effects belong to tick"
					}
				}
				if why != "" {
					t.Errorf("%s: %s", fset.Position(n.Pos()), why)
				}
				return true
			})
			return ""
		})
		if found != 1 {
			t.Errorf("internal/core/supervisor.go declares %d functions decide; want one", found)
		}
	})

	t.Run("an install reads its package list from the kickstart", func(t *testing.T) {
		// The frontend resolves a profile's packages once per kickstart
		// request and the kickstart ends with the answer (DESIGN.md §9): the
		// installer never names the manifest, and the fetcher has no
		// resolver for it to call.
		inspect(t, all, func(n ast.Node) string {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "Resolve" && fn.Recv != nil && strings.Contains(typeNames(fn.Recv), "Fetcher") {
				return "Fetcher.Resolve is retired: the kickstart carries the resolution"
			}
			return ""
		})
		inspect(t, func(f srcFile) bool { return f.in("internal/installer") }, func(n ast.Node) string {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "RedHat/base/manifest") {
				return "the installer names RedHat/base/manifest; its package list is the kickstart's (dist.ReadResolution)"
			}
			if _, m := methodCall(n); m == "Resolve" {
				return "the installer resolves packages itself; the kickstart carries the frontend's resolution (dist.ReadResolution)"
			}
			return ""
		})
	})

	t.Run("the private network is in-process", func(t *testing.T) {
		// internal/memnet never falls back to the kernel (DESIGN.md §8): it
		// names no net.Listen* or net.Dial*, so no private address can reach
		// a socket.
		inspect(t, func(f srcFile) bool { return f.in("internal/memnet") }, func(n ast.Node) string {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "net" &&
					(strings.HasPrefix(sel.Sel.Name, "Listen") || strings.HasPrefix(sel.Sel.Name, "Dial")) {
					return "net." + sel.Sel.Name + " in internal/memnet; the private network opens no socket"
				}
			}
			return ""
		})
	})

	t.Run("the lifecycle bus is an output", func(t *testing.T) {
		// internal/core publishes to the bus and never reads its own process
		// back off it (DESIGN.md §14): the code that changes a node's state
		// calls the subsystem that cares. The federation forwarder, which
		// ships events upstream, subscribes inside internal/lifecycle.
		inspect(t, func(f srcFile) bool { return f.in("internal/core") }, func(n ast.Node) string {
			if _, m := methodCall(n); m == "Subscribe" {
				return "a bus subscription in internal/core; call the subsystem where the state changes"
			}
			return ""
		})
	})

	t.Run("the frontend reaches a machine through the floor", func(t *testing.T) {
		// internal/core holds a simulated machine in one file (DESIGN.md §14).
		// Outside floor.go no non-test file names package node but node.Disk
		// (the frontend disk the reports write) and, in cluster.go, the
		// Cluster.Frontend field and its construction in New; and none calls
		// NodeByName, Nodes, IntegrateNodes or WaitState, which would hold a
		// machine through type inference. The rest of the frontend resolves a
		// hostname through the database and pings, execs or cycles.
		godsEye := []string{"NodeByName", "Nodes", "IntegrateNodes", "WaitState"}
		for _, f := range files {
			if f.ast == nil || !f.in("internal/core") || f.path == "internal/core/floor.go" {
				continue
			}
			pkgs := map[string]bool{}
			for _, imp := range f.ast.Imports {
				name := path.Base(strings.Trim(imp.Path.Value, `"`))
				if imp.Name != nil {
					name = imp.Name.Name
				}
				pkgs[name] = true
			}
			isPkg := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && id.Obj == nil && pkgs[id.Name]
			}
			frontend := func(names ...*ast.Ident) bool {
				return f.path == "internal/core/cluster.go" && len(names) == 1 && names[0].Name == "Frontend"
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				why := ""
				switch x := n.(type) {
				case *ast.Field:
					return !frontend(x.Names...)
				case *ast.KeyValueExpr:
					key, _ := x.Key.(*ast.Ident)
					return key == nil || !frontend(key)
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && id.Name == "node" && isPkg(id) && x.Sel.Name != "Disk" {
						why = "node." + x.Sel.Name + " outside floor.go; reach a machine through the floor"
					}
				case *ast.CallExpr:
					var name string
					switch fn := x.Fun.(type) {
					case *ast.Ident:
						name = fn.Name
					case *ast.SelectorExpr:
						if !isPkg(fn.X) {
							name = fn.Sel.Name
						}
					}
					if slices.Contains(godsEye, name) {
						why = "a call to " + name + " outside floor.go; resolve the host through the database and ping, exec or cycle"
					}
				}
				if why != "" {
					t.Errorf("%s: %s", fset.Position(n.Pos()), why)
				}
				return true
			})
		}
	})

	t.Run("retired names", func(t *testing.T) {
		// By where each may not appear.
		goFile := func(f srcFile) bool { return f.isGo() }
		goOrDocs := func(f srcFile) bool { return f.isGo() || f.in("docs") }
		for _, r := range []struct {
			pattern string
			where   func(srcFile) bool
			why     string
		}{
			{`/admin/`, all, "the /admin surface is retired; use /v1"},
			{`DisableProfileCache|SetPlanCache`, goOrDocs, "the kickstart profile cache and the parse memo have no off switch"},
			{`nodeResolver|renderKey`, goFile, "the CGI reads the database and renders the profile per request"},
			{`f\.(Phase|Source) [!=]= ""`, func(f srcFile) bool { return f.ast != nil && f.in("internal/core") },
				"select events with lifecycle.Filter.Matches, not a restated predicate"},
			{`append\(ch\.mirror\[:0\]`, func(f srcFile) bool { return f.isGo() && f.in("internal") },
				"the federation mirror is a lifecycle.Ring; push into it, do not shift the slice"},
			{`execAggregate|execGroupBy|planRows|substituteAggs|sameAgg`, goFile, "read rows through query.each"},
			{`mirror-workers`, goOrDocs, "a mirror pass is one stream; there is no worker pool to size"},
			{`FullSync`, goFile, "a discovery applies its own DHCP binding; the report pass reconciles the rest"},
			{`InstallRetries`, goOrDocs, "the installer retries a fetch twice; there is no knob"},
			{`relays [!=]= nil`, goFile, "the relay registry always exists; with EnableRelays off no install expects a store"},
			{`NewMaui|\*Maui\)`, goFile, "a scheduling pass is pbs.Server.Schedule, run inline by comeUp and ReinstallCluster"},
			{`rexec\.RunParallel|func RunParallel|TagOutput|RexecDaemons`, goFile, "a parallel run is cluster-fork (ctools.Fork) or mpirun"},
			{`faults\.Middleware|func Middleware\(`, goFile, "HTTP faults are injected client-side, by faults.NewTransport"},
			{`ComputeNodeNames|EventsFor|displayName`, goFile, "a node's name comes from its database row, compute nodes from cluster-fork's default query, and a node's supervisor events from the bus"},
		} {
			re := regexp.MustCompile(r.pattern)
			for _, f := range files {
				if !r.where(f) {
					continue
				}
				for i, line := range strings.Split(f.text, "\n") {
					if re.MatchString(line) {
						t.Errorf("%s:%d: %s is retired: %s", f.path, i+1, re.FindString(line), r.why)
					}
				}
			}
		}
	})
}

// typeNames renders a receiver list's types, for matching by name.
func typeNames(fl *ast.FieldList) string {
	var b strings.Builder
	for _, f := range fl.List {
		ast.Inspect(f.Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				b.WriteString(id.Name)
			}
			return true
		})
	}
	return b.String()
}
