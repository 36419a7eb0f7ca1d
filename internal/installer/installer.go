// Package installer simulates Red Hat's Kickstart installer (anaconda) with
// the Rocks eKV modification (§6.3). A run performs the full §5/§6.1 node
// flow against live services: acquire an address over DHCP, fetch the
// dynamically generated kickstart file over HTTP, partition the disk
// (reformatting root, preserving non-root partitions), pull every RPM over
// HTTP, execute %post scripts, rebuild the Myrinet driver from source when
// the hardware probe demands it, and reboot. Progress is written to the
// node's eKV port so shoot-node can watch remotely.
//
// The package phase is one stream per (install, source): the installer takes
// the frontend's resolution of its profile from the kickstart file, asks the
// best source once for all of it (dist.Fetcher.Packages), and unpacks each
// package as it arrives verified. A fault-free install makes four requests —
// kickstart file, relay lookup, the stream, facts report — however many
// packages it installs. A stream that ends early resumes at the package it
// stopped at: what it had verified stays installed and is never asked for
// again, and the retry budget is that package's, not the stream's.
package installer

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"rocks/internal/apiclient"
	"rocks/internal/dhcp"
	"rocks/internal/dist"
	"rocks/internal/ekv"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// ClientIPHeader carries the installing node's DHCP-assigned address to the
// kickstart CGI. The real CGI keys on the TCP source address (§6.1); every
// simulated node dials from one host, so the address travels in a header
// instead. The CGI prefers it over RemoteAddr.
const ClientIPHeader = "X-Rocks-Client-IP"

// Config wires an installation run to the cluster's services.
type Config struct {
	// Bus is the private Ethernet broadcast segment for DHCP.
	Bus *dhcp.Bus
	// HTTP carries every request the install makes; nil means a
	// 60-second-timeout client, never http.DefaultClient.
	HTTP *http.Client
	// DHCPRetry is the wait between DISCOVER attempts while the node is
	// still unknown (insert-ethers may not have bound it yet).
	DHCPRetry time.Duration
	// DHCPTimeout bounds the whole discovery phase.
	DHCPTimeout time.Duration
	// DisableEKV skips starting the eKV listener (mass fan-out tests).
	DisableEKV bool
	// InteractiveRetryWait, when positive, keeps a failed package fetch
	// alive: the installer prompts on eKV and waits this long for a user
	// to type "retry" (resume at the failed package) or "abort" (§6.3: "we've
	// also inserted code that allows users to interact with the
	// installation"). Zero disables interaction and fails immediately.
	InteractiveRetryWait time.Duration
	// FetchRetries grants every HTTP fetch (the kickstart, and each
	// package of the package stream: a stream that fails spends a retry of
	// the package it stopped at, and what it delivered before is kept)
	// that many automatic retries on transient failures — connection
	// errors, 5xx responses, truncated bodies — before the install fails.
	// The large-cluster experience reports (CERN, Brookhaven) are blunt
	// that at scale such failures are constant; a bounded non-interactive
	// retry keeps a single flake from costing a whole reinstall. Zero
	// disables automatic retries.
	FetchRetries int
	// FetchBackoff is the wait before the first automatic retry; it
	// doubles on each subsequent attempt. Zero means 25ms.
	FetchBackoff time.Duration
	// FaultHook, when set, is consulted at install stage boundaries
	// ("partition", "finalize"); a non-nil return aborts the install at
	// that point. The faults package uses it to wedge nodes mid-install.
	FaultHook func(stage string) error
	// Events, when set, receives a lifecycle event at every install phase
	// boundary (lease, kickstart, partition, packages, post) plus a
	// terminal install-complete / install-failed / install-aborted event.
	Events *lifecycle.Bus
	// Stats, when set, accumulates fetch retries, corrupt-package
	// discards, and terminal outcomes across every Run sharing it.
	Stats *Stats
	// FrontendURL, when set, is the frontend's base URL; the installer
	// reaches its /v1 control plane through apiclient for the two calls
	// below. Empty disables both — no extra requests.
	//
	// After install-complete the installer runs a first-boot agent phase: it
	// probes the node's hardware profile and POSTs the facts to /v1/facts,
	// closing the discover→install→verify loop. A failed report never fails
	// the install — the node is already built — but is marked with a
	// facts-failed lifecycle event.
	//
	// With RelayStore also set, the installer asks /v1/relays once per
	// install for prioritized peer sources — identifying itself by MAC, so
	// the registry can prefer same-rack peers — and streams its packages
	// peer-first with the frontend as fallback.
	FrontendURL string
	// RelayStore, when set, puts this install in the relay tier: peers are
	// tried first (see FrontendURL), and every digest-verified package this
	// install fetches accumulates here, so the node can re-serve its tree
	// to peers once the registry hears its install-complete event. Nil
	// means frontend-only distribution.
	RelayStore *rpm.Repository
	// Held keeps the install's verified packages: installs sharing one
	// share each package between their nodes. Nil means one of its own.
	Held *rpm.Held
	// FactsHook, when set, may perturb the profile the agent is about to
	// report (the machine's real hardware is untouched). The faults package
	// uses it to inject deterministic drift.
	FactsHook func(p hardware.Profile) hardware.Profile
}

// defaultClient bounds every request: http.DefaultClient has no timeout, so
// one hung kickstart or package request could wedge an install forever. The
// package phase is one request per stream, so there the 60 s bound one
// stream, not one package — and because a stream cut short resumes where it
// stopped under a fresh budget, that limits how long a stalled source can
// hold an install, not how long an install may take.
var defaultClient = &http.Client{Timeout: 60 * time.Second}

func (c Config) withDefaults() Config {
	if c.HTTP == nil {
		c.HTTP = defaultClient
	}
	if c.DHCPRetry <= 0 {
		c.DHCPRetry = 10 * time.Millisecond
	}
	if c.DHCPTimeout <= 0 {
		c.DHCPTimeout = 30 * time.Second
	}
	if c.FetchBackoff <= 0 {
		c.FetchBackoff = 25 * time.Millisecond
	}
	if c.Held == nil {
		c.Held = rpm.NewHeld()
	}
	return c
}

// api is the installer's client for the frontend's control plane.
func (c Config) api() *apiclient.Client {
	return &apiclient.Client{Base: strings.TrimSuffix(c.FrontendURL, "/"), HTTP: c.HTTP}
}

// fetcher builds the install's distribution-protocol client: the config's
// HTTP client and automatic retry budget, with every retry counted in the
// shared Stats and shown on the node's eKV screen.
func (c Config) fetcher(screen io.Writer) *dist.Fetcher {
	return &dist.Fetcher{
		HTTP:     c.HTTP,
		Attempts: max(c.FetchRetries, 0) + 1,
		Backoff:  c.FetchBackoff,
		Held:     c.Held,
		OnRetry: func(what string, err error, try int, wait time.Duration) {
			c.Stats.retry()
			fmt.Fprintf(screen, "transient failure fetching %s: %v; retry %d/%d in %s\n",
				what, err, try, c.FetchRetries, wait)
		},
	}
}

// emit publishes an install-phase event for the node, using the hostname
// once the lease has bound one and the MAC before that.
func emit(cfg Config, n *node.Node, t lifecycle.EventType, detail string) {
	if cfg.Events == nil {
		return
	}
	name := n.Name()
	if name == "" {
		name = n.MAC()
	}
	cfg.Events.Publish(lifecycle.Event{
		Node:   name,
		MAC:    n.MAC(),
		Phase:  lifecycle.PhaseInstall,
		Type:   t,
		Source: "installer",
		Detail: detail,
	})
}

// faultAt consults the configured fault hook at a stage boundary.
func faultAt(cfg Config, stage string) error {
	if cfg.FaultHook == nil {
		return nil
	}
	return cfg.FaultHook(stage)
}

// Result summarizes a completed installation.
type Result struct {
	Packages      int
	Bytes         int64
	GMRebuilt     bool
	EKVTranscript string
}

// Run installs the node. On success the node is left in StateBooting with a
// bootable disk; the caller (the cluster orchestrator) completes the boot.
// On failure the node is left in StateCrashed — the paper's "physical
// intervention required" outcome. Cancelling ctx aborts the install at the
// next phase boundary, retry backoff, or package fetch; the error then
// satisfies errors.Is(err, context.Canceled) and the terminal event is
// install-aborted rather than install-failed.
func Run(ctx context.Context, n *node.Node, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	runStart := time.Now()
	n.SetState(node.StateInstalling)
	n.ClearReinstall()
	n.ResetInstallLog()

	var screen io.Writer = io.Discard
	var ekvSrv *ekv.Server
	if !cfg.DisableEKV {
		var err error
		ekvSrv, err = ekv.NewServer()
		if err != nil {
			return fail(cfg, n, nil, fmt.Errorf("installer: starting eKV: %w", err))
		}
		defer func() {
			n.SetEKVAddr("")
			ekvSrv.Close()
		}()
		screen = ekvSrv
	}
	res := &Result{}

	fmt.Fprintf(screen, "Red Hat Linux (C) 2000 Red Hat, Inc.  [Rocks eKV]\n")
	if ekvSrv != nil {
		// Published with the banner already on the screen: whoever attaches
		// is sent at least that, so its first bytes tell a watcher the server
		// has it (core.ShootNodeWatch waits for them here, inside this call).
		n.SetEKVAddr(ekvSrv.Addr())
	}

	if err := ctx.Err(); err != nil {
		return fail(cfg, n, ekvSrv, fmt.Errorf("installer: install aborted before start: %w", err))
	}

	// Hardware probe: autodetect the modules to load (§1, §3.3).
	probe, err := hardware.Detect(n.HW)
	if err != nil {
		return fail(cfg, n, ekvSrv, fmt.Errorf("installer: hardware probe: %w", err))
	}
	fmt.Fprintf(screen, "probing hardware: disk driver %s (%s), NIC drivers %s\n",
		probe.DiskDriver, probe.DiskDevice, strings.Join(probe.NICDrivers, ", "))

	// DHCP: the network "is configured early in the boot cycle" (§4).
	lease, err := acquireLease(ctx, n, cfg, screen)
	if err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	n.SetIP(lease.YourIP)
	n.SetName(lease.Hostname)
	emit(cfg, n, lifecycle.EventLease, fmt.Sprintf("ip %s", lease.YourIP))
	fmt.Fprintf(screen, "eth0: %s (%s), kickstart server %s\n",
		lease.YourIP, lease.Hostname, lease.NextServer)

	// Fetch the dynamically generated kickstart file (§6.1). The
	// architecture travels in the request, exactly as anaconda encodes it
	// in the kickstart URL; the CGI uses it to prune arch-conditional graph
	// edges and records it in the nodes table.
	f := cfg.fetcher(screen)
	kickstartURL := strings.TrimSuffix(lease.NextServer, "/") + "/install/kickstart.cgi?arch=" + n.HW.Arch
	profile, entries, resolved, err := fetchKickstart(ctx, f, kickstartURL, lease.YourIP, nil)
	if err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	ksDetail := fmt.Sprintf("%d packages", len(profile.Packages))
	if profile.Appliance != "" {
		ksDetail = fmt.Sprintf("appliance %s, %s", profile.Appliance, ksDetail)
	}
	emit(cfg, n, lifecycle.EventKickstart, ksDetail)
	fmt.Fprintf(screen, "retrieved kickstart: appliance %q, %d packages\n",
		profile.Appliance, len(profile.Packages))

	// %pre scripts run in the install environment before partitioning —
	// anaconda executes them from the ramdisk, so their effects are
	// environment-only; we record the transcript.
	if len(profile.Pre) > 0 {
		fmt.Fprintf(screen, "running %d pre-installation scripts\n", len(profile.Pre))
		for i, script := range profile.Pre {
			n.Logf("pre %d: %s", i, strings.TrimSpace(script.Text))
		}
	}

	// Partitioning, per the command section.
	if err := applyPartitioning(n, profile, screen); err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	if err := faultAt(cfg, "partition"); err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	emit(cfg, n, lifecycle.EventPartition, "")

	// Package installation over HTTP.
	distURL, err := distBase(profile)
	if err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	// An eKV retry asks the frontend again: the fix may be a new package.
	resolveAgain := func() ([]dist.ManifestEntry, error) {
		_, entries, resolved, err := fetchKickstart(ctx, f, kickstartURL, lease.YourIP, profile.Packages)
		return entries, cmp.Or(err, resolved)
	}
	count, bytes, err := installPackages(ctx, n, cfg, f, profile.Packages, entries, resolved, resolveAgain, distURL, screen, ekvSrv)
	if err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	res.Packages, res.Bytes = count, bytes
	emit(cfg, n, lifecycle.EventPackages, fmt.Sprintf("%d packages, %d bytes", count, bytes))

	// The kernel payload makes the disk bootable.
	if m, ok := n.PackageDB().Query("kernel"); ok {
		kv := m.Version.Version + "-" + m.Version.Release
		n.SetKernelVersion(kv)
		if err := n.Disk().WriteFile("/boot/vmlinuz", []byte("vmlinuz-"+kv), 0o755); err != nil {
			return fail(cfg, n, ekvSrv, err)
		}
	}

	// %post scripts.
	if err := runPostScripts(n, profile, screen); err != nil {
		return fail(cfg, n, ekvSrv, err)
	}
	emit(cfg, n, lifecycle.EventPost, fmt.Sprintf("%d scripts", len(profile.Post)))

	// Myrinet driver: rebuilt from source so it always matches the kernel
	// that was just installed (§6.3).
	if probe.NeedsGMBuild {
		if err := rebuildGMDriver(n, screen); err != nil {
			return fail(cfg, n, ekvSrv, err)
		}
		res.GMRebuilt = true
	}

	if err := faultAt(cfg, "finalize"); err != nil {
		return fail(cfg, n, ekvSrv, err)
	}

	n.Logf("installation complete: %d packages, %d bytes", count, bytes)
	n.Disk().WriteFile("/root/install.log", []byte(strings.Join(n.InstallLog(), "\n")+"\n"), 0o644)
	fmt.Fprintf(screen, "installation complete; rebooting\n")
	n.MarkInstalled()
	n.SetState(node.StateBooting)
	if cfg.Stats != nil {
		cfg.Stats.Complete.Add(1)
	}
	cfg.Stats.observeInstall(time.Since(runStart))
	emit(cfg, n, lifecycle.EventInstallComplete, fmt.Sprintf("%d packages", count))

	// First-boot agent phase: report what the hardware probe actually saw
	// back to the frontend, so the database's idea of this node can be
	// verified against reality.
	reportFacts(ctx, n, cfg, f, screen)

	if ekvSrv != nil {
		res.EKVTranscript = ekvSrv.Screen()
	}
	return res, nil
}

// fetchKickstart fetches the node's kickstart file (§6.1) and reads the
// package resolution it ends with for names, the profile's own when nil,
// retrying a failed or torn answer; a package missing from the distribution
// comes back as resolved.
func fetchKickstart(ctx context.Context, f *dist.Fetcher, u, ip string, names []string) (profile *kickstart.Profile, entries []dist.ManifestEntry, resolved, err error) {
	err = f.Do(ctx, "kickstart", func() error {
		text, err := f.Get(ctx, u, http.Header{ClientIPHeader: {ip}})
		if err == nil {
			profile, err = kickstart.ParseProfile(text)
		}
		if err != nil {
			return err
		}
		want := names
		if want == nil {
			want = profile.Packages
		}
		if entries, resolved = dist.ReadResolution(profile.Manifest, want); dist.IsTransient(resolved) {
			return resolved
		}
		return nil
	})
	return profile, entries, resolved, err
}

// reportFacts is the first-boot agent: probe the node's hardware profile,
// apply any configured perturbation, and POST the facts to the frontend.
// A report that got no answer or a 5xx is retried under the fetch budget;
// a rejection is not. Delivery failures are published (facts-failed) but
// never fail the install.
func reportFacts(ctx context.Context, n *node.Node, cfg Config, f *dist.Fetcher, screen io.Writer) {
	if cfg.FrontendURL == "" {
		return
	}
	p := n.HW
	if cfg.FactsHook != nil {
		p = cfg.FactsHook(p)
	}
	facts := hardware.FactsFromProfile(p, n.MAC(), n.Name())
	fmt.Fprintf(screen, "reporting hardware facts to %s\n", cfg.FrontendURL)
	api := cfg.api()
	err := f.Do(ctx, "facts report", func() error {
		err := api.PostJSON(ctx, "facts", nil, facts, nil)
		var rejected *apiclient.APIError
		if err != nil && !(errors.As(err, &rejected) && rejected.Status < 500) {
			err = dist.Transient(err)
		}
		return err
	})
	if err != nil {
		emit(cfg, n, lifecycle.EventFactsFailed, err.Error())
	}
}

func fail(cfg Config, n *node.Node, ekvSrv *ekv.Server, err error) (*Result, error) {
	if ekvSrv != nil {
		ekvSrv.Printf("INSTALL FAILED: %v\n(interactive shell available on this port)\n", err)
	}
	n.Logf("install failed: %v", err)
	n.SetState(node.StateCrashed)
	// A cancelled install is an abort commanded from above (Cluster.Close,
	// a supervisor pre-emption), not a node-local failure.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cfg.Stats != nil {
			cfg.Stats.Aborted.Add(1)
		}
		emit(cfg, n, lifecycle.EventInstallAborted, err.Error())
	} else {
		if cfg.Stats != nil {
			cfg.Stats.Failed.Add(1)
		}
		emit(cfg, n, lifecycle.EventInstallFailed, err.Error())
	}
	return nil, err
}

// acquireLease runs the DISCOVER/OFFER/REQUEST/ACK exchange, retrying while
// the node is unknown. During first integration the DHCP server stays
// silent until insert-ethers binds the MAC, so the retry loop is what makes
// sequential discovery work.
func acquireLease(ctx context.Context, n *node.Node, cfg Config, screen io.Writer) (dhcp.Packet, error) {
	deadline := time.Now().Add(cfg.DHCPTimeout)
	xid := uint32(1)
	fmt.Fprintf(screen, "sending DHCPDISCOVER from %s\n", n.MAC())
	for {
		if _, ok := cfg.Bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, Xid: xid, MAC: n.MAC()}); ok {
			ack, ok := cfg.Bus.Broadcast(dhcp.Packet{Type: dhcp.Request, Xid: xid, MAC: n.MAC()})
			if !ok {
				return dhcp.Packet{}, fmt.Errorf("installer: OFFER but no ACK for %s", n.MAC())
			}
			return ack, nil
		}
		if time.Now().After(deadline) {
			return dhcp.Packet{}, fmt.Errorf("installer: DHCP timeout for %s (node never inserted?)", n.MAC())
		}
		xid++
		select {
		case <-time.After(cfg.DHCPRetry):
		case <-ctx.Done():
			return dhcp.Packet{}, fmt.Errorf("installer: DHCP discovery for %s aborted: %w", n.MAC(), ctx.Err())
		}
	}
}

// distBase extracts the distribution URL from the profile's `url` command.
func distBase(p *kickstart.Profile) (string, error) {
	v, ok := p.CommandValue("url")
	if !ok {
		return "", fmt.Errorf("installer: kickstart has no url directive")
	}
	fields := strings.Fields(v)
	for i, f := range fields {
		if f == "--url" && i+1 < len(fields) {
			return strings.TrimSuffix(fields[i+1], "/"), nil
		}
	}
	return "", fmt.Errorf("installer: malformed url directive %q", v)
}

// applyPartitioning interprets clearpart/part commands. Root ("/") is
// always reformatted; a partition marked --noformat is created if absent
// but its contents survive if present — the §6.3 persistence contract.
// Fixed partition sizes must fit the probed disk; anaconda refuses to
// install onto hardware that cannot hold the requested layout.
func applyPartitioning(n *node.Node, p *kickstart.Profile, screen io.Writer) error {
	var fixedMB int
	for _, c := range p.Commands {
		fields := strings.Fields(c)
		if len(fields) < 2 || fields[0] != "part" {
			continue
		}
		size := 0
		for i, f := range fields {
			if f == "--size" && i+1 < len(fields) {
				fmt.Sscanf(fields[i+1], "%d", &size)
			}
		}
		if !slices.Contains(fields, "--grow") {
			fixedMB += size
		}
	}
	if disk := n.HW.Disk.SizeMB; disk > 0 && fixedMB > disk {
		return fmt.Errorf("installer: kickstart requests %d MB of fixed partitions but the %s disk holds %d MB",
			fixedMB, n.HW.Disk.Type, disk)
	}

	d := n.Disk()
	for _, c := range p.Commands {
		fields := strings.Fields(c)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "clearpart":
			if slices.Contains(fields[1:], "--all") {
				fmt.Fprintf(screen, "clearing all partitions\n")
				d.RemoveAll()
			}
		case "part":
			if len(fields) < 2 {
				return fmt.Errorf("installer: malformed part command %q", c)
			}
			mount := strings.Clone(fields[1]) // a piece would keep the whole kickstart
			if slices.Contains(fields[2:], "--noformat") {
				part := d.EnsurePartition(mount)
				if !part.Formatted {
					d.Format(mount)
					fmt.Fprintf(screen, "formatting %s (first use)\n", mount)
				} else {
					fmt.Fprintf(screen, "preserving %s\n", mount)
				}
			} else {
				d.Format(mount)
				fmt.Fprintf(screen, "formatting %s\n", mount)
			}
		}
	}
	if _, ok := d.Partition("/"); !ok {
		return fmt.Errorf("installer: kickstart defined no root partition")
	}
	return nil
}

// installPackages installs names from entries, their resolution (one entry
// per name, carrying the digest its body must match), or fails with err, the
// resolution's failure, before anything is asked of a source; an eKV retry
// resolves again. It asks a source for every package in one stream and
// unpacks each one as it arrives verified.
func installPackages(ctx context.Context, n *node.Node, cfg Config, f *dist.Fetcher, names []string, entries []dist.ManifestEntry, err error, again func() ([]dist.ManifestEntry, error), distURL string, screen io.Writer, ekvSrv *ekv.Server) (int, int64, error) {
	n.ResetPackageDB()

	// Ask the relay registry for peer sources (best-effort): packages are
	// then streamed peer-first with the frontend as fallback. Every body is
	// verified against the frontend's manifest digests regardless of which
	// source served it — a corrupt or lying peer is demoted and the rest of
	// the stream is asked elsewhere, so garbage never reaches the disk.
	srcs := newSourceSet(fetchRelaySources(ctx, cfg, n.MAC()), distURL)
	if len(srcs.peers) > 0 {
		fmt.Fprintf(screen, "relay registry offered %d peer source(s)\n", len(srcs.peers))
	}

	var total, grandTotal int64 // Figure 7's Completed and Total bytes, by the manifest
	start := time.Now()
	done := 0 // packages on the disk; the stream resumes here
	unpack := func(pkg *rpm.Package) error {
		if err := n.Disk().Unpack(pkg.Files); err != nil {
			return fmt.Errorf("installer: unpacking %s: %w", pkg.NVRA(), err)
		}
		n.PackageDB().Install(&pkg.Metadata)
		total += pkg.Size
		done++
		// Redraw the Figure 7 panel for every package, exactly as the
		// paper's screenshot shows — when there is a screen to draw it on.
		if ekvSrv != nil {
			writeStatusPanel(screen, pkg, done, len(names), total, grandTotal, time.Since(start))
		}
		return nil
	}
	for {
		if err == nil {
			grandTotal = 0
			for _, e := range entries {
				grandTotal += e.Size
			}
			// Stream entries[done:] onto the disk, resumed where it stops
			// under the budget of the package it stopped at.
			err = f.Stream(ctx, entries[done:], func(rest []dist.ManifestEntry) (int, error) {
				before := done
				err := streamVerified(ctx, n, cfg, f, screen, srcs, rest, unpack)
				return done - before, err
			})
		}
		if err == nil {
			break
		}
		// Cancellation lands between packages: the package being written
		// finishes (no torn files on disk), then the stream is dropped.
		if cerr := ctx.Err(); cerr != nil {
			return done, total, fmt.Errorf("installer: package installation aborted after %d/%d packages: %w",
				done, len(names), cerr)
		}
		// The eKV keyboard gives the administrator a chance to fix the
		// distribution and retry without restarting the install.
		if cfg.InteractiveRetryWait <= 0 || ekvSrv == nil || done == len(names) {
			return done, total, err
		}
		fmt.Fprintf(screen, "FAILED: %v\ntype 'retry' to resume at %s, 'abort' to give up\n", err, names[done])
		if !awaitRetry(ctx, ekvSrv, cfg.InteractiveRetryWait) {
			return done, total, err
		}
		fmt.Fprintf(screen, "resuming at %s\n", names[done])
		entries, err = again()
	}
	fmt.Fprintf(screen, " Total  : %d packages, %dM\n", len(names), total>>20)
	return len(names), total, nil
}

// writeStatusPanel renders the installation panel of Figure 7.
func writeStatusPanel(w io.Writer, pkg *rpm.Package, done, totalPkgs int, doneBytes, totalBytes int64, elapsed time.Duration) {
	mm := func(b int64) string { return fmt.Sprintf("%dM", b>>20) }
	clock := func(d time.Duration) string {
		secs := int(d.Seconds())
		return fmt.Sprintf("%d:%02d.%02d", secs/60, secs%60, int(d.Milliseconds()/10)%100)
	}
	var remainTime time.Duration
	if doneBytes > 0 && totalBytes > doneBytes {
		remainTime = time.Duration(float64(elapsed) * float64(totalBytes-doneBytes) / float64(doneBytes))
	}
	fmt.Fprintf(w, "+---------------- Package Installation -----------------+\n")
	fmt.Fprintf(w, "| Name   : %-45s |\n", pkg.NVRA())
	fmt.Fprintf(w, "| Size   : %-45s |\n", fmt.Sprintf("%dk", pkg.Size/1024))
	fmt.Fprintf(w, "| Summary: %-45.45s |\n", pkg.Summary)
	fmt.Fprintf(w, "|             Packages   Bytes      Time              |\n")
	fmt.Fprintf(w, "| Total     : %-8d   %-8s   %-8s          |\n", totalPkgs, mm(totalBytes), clock(elapsed+remainTime))
	fmt.Fprintf(w, "| Completed : %-8d   %-8s   %-8s          |\n", done, mm(doneBytes), clock(elapsed))
	fmt.Fprintf(w, "| Remaining : %-8d   %-8s   %-8s          |\n", totalPkgs-done, mm(totalBytes-doneBytes), clock(remainTime))
	fmt.Fprintf(w, "+--------------------------------------------------------+\n")
}

// runPostScripts executes each %post section with a miniature shell
// interpreter: `echo 'text' > path`, `echo 'text' >> path`, and
// `chkconfig <svc> on|off` have real effects on the node; every other line
// is recorded in the install log (the transcript a real %post leaves).
func runPostScripts(n *node.Node, p *kickstart.Profile, screen io.Writer) error {
	fmt.Fprintf(screen, "running %d post-configuration scripts\n", len(p.Post))
	services := map[string]bool{}
	for i, s := range p.Post {
		scriptPath := fmt.Sprintf("/root/ks-post.%03d.sh", i)
		if err := n.Disk().WriteFile(scriptPath, []byte(s.Text), 0o755); err != nil {
			return err
		}
		for _, line := range strings.Split(s.Text, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := execPostLine(n, line, services); err != nil {
				return fmt.Errorf("installer: post script %d: %w", i, err)
			}
		}
	}
	var enabled []string
	for svc, on := range services {
		if on {
			enabled = append(enabled, svc)
		}
	}
	n.SetServices(enabled)
	return nil
}

// execPostLine applies one %post line.
func execPostLine(n *node.Node, line string, services map[string]bool) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "chkconfig":
		if len(fields) == 3 {
			services[strings.Clone(fields[1])] = fields[2] == "on"
		}
	case "echo":
		// echo 'text' > path   or   echo 'text' >> path
		if i := strings.LastIndex(line, ">>"); i > 0 {
			text := extractEchoText(line[:i])
			path := strings.Clone(strings.TrimSpace(line[i+2:]))
			if strings.HasPrefix(path, "/") {
				return n.Disk().AppendFile(path, []byte(text+"\n"))
			}
		} else if i := strings.LastIndex(line, ">"); i > 0 {
			text := extractEchoText(line[:i])
			path := strings.Clone(strings.TrimSpace(line[i+1:]))
			if strings.HasPrefix(path, "/") {
				return n.Disk().WriteFile(path, []byte(text+"\n"), 0o644)
			}
		}
	}
	n.Logf("post: %s", line)
	return nil
}

// extractEchoText pulls the quoted (or bare) argument of an echo.
func extractEchoText(s string) string {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "echo"))
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1]
	}
	return s
}

// rebuildGMDriver compiles the Myrinet driver from its source RPM against
// the just-installed kernel. It fails if the source package or its build
// requirements are missing — a real configuration error Rocks surfaces.
func rebuildGMDriver(n *node.Node, screen io.Writer) error {
	db := n.PackageDB()
	src, ok := db.Query("myrinet-gm-src")
	if !ok {
		return fmt.Errorf("installer: node has Myrinet hardware but no myrinet-gm-src package")
	}
	for _, req := range []string{"gcc", "kernel"} {
		if _, ok := db.Query(req); !ok {
			return fmt.Errorf("installer: GM driver build requires %q which is not installed", req)
		}
	}
	kv := n.KernelVersion()
	fmt.Fprintf(screen, "building GM driver %s against kernel %s\n", src.Version, kv)
	module := fmt.Sprintf("/lib/modules/%s/kernel/drivers/net/gm.o", kv)
	if err := n.Disk().WriteFile(module, []byte("gm module for "+kv), 0o644); err != nil {
		return err
	}
	n.SetGMDriverFor(kv)
	n.Logf("gm driver rebuilt for kernel %s", kv)
	return nil
}

// awaitRetry blocks for an eKV keyboard decision; it reports true for
// "retry", false for "abort", timeout, or cancellation.
func awaitRetry(ctx context.Context, srv *ekv.Server, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		line, ok := srv.AwaitLine(ctx, time.Until(deadline))
		if !ok {
			return false
		}
		switch strings.TrimSpace(line) {
		case "retry":
			return true
		case "abort":
			return false
		}
	}
}
