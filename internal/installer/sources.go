package installer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"time"

	"rocks/internal/dist"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// Source kinds: a peer relay (a completed node re-serving its verified
// tree) or the frontend itself (always the fallback of last resort).
const (
	SourcePeer     = "peer"
	SourceFrontend = "frontend"
)

// Source is one place an installer can fetch package bodies from. The
// frontend's /v1/relays registry hands out prioritized peer sources; the
// frontend's own distribution URL is appended as the final fallback.
type Source struct {
	URL  string `json:"url"`            // distribution root, no trailing slash
	Kind string `json:"kind"`           // SourcePeer or SourceFrontend
	Node string `json:"node,omitempty"` // serving node, for peers
}

// String renders the source for error messages and lifecycle events — the
// attribution that makes a demotion auditable in /v1/events.
func (s Source) String() string { return s.Kind + " " + s.URL }

// sourceSet is the installer's working view of its sources: peers in
// registry priority order, frontend last. A peer that serves a corrupt or
// failing response is demoted (dropped for the rest of the install); the
// frontend is never demoted.
type sourceSet struct {
	peers    []Source
	frontend Source
}

func newSourceSet(peers []Source, frontendURL string) *sourceSet {
	return &sourceSet{peers: peers, frontend: Source{URL: frontendURL, Kind: SourceFrontend}}
}

// pick returns the best available source: the first surviving peer, else
// the frontend.
func (ss *sourceSet) pick() Source {
	if len(ss.peers) > 0 {
		return ss.peers[0]
	}
	return ss.frontend
}

// demote drops a peer from the set. Demoting the frontend is a no-op.
func (ss *sourceSet) demote(src Source) {
	for i, p := range ss.peers {
		if p.URL == src.URL {
			ss.peers = append(ss.peers[:i:i], ss.peers[i+1:]...)
			return
		}
	}
}

// fetchRelaySources asks the frontend's relay registry for prioritized peer
// sources. It is strictly best-effort: any error (registry absent, old
// frontend, torn response) means frontend-only distribution, never a failed
// install.
func fetchRelaySources(ctx context.Context, cfg Config, mac string) []Source {
	if cfg.FrontendURL == "" || cfg.RelayStore == nil {
		return nil
	}
	var registry struct {
		Sources []Source `json:"sources"`
	}
	if err := cfg.api().Get(ctx, "relays", url.Values{"mac": {mac}}, &registry); err != nil {
		return nil
	}
	var peers []Source
	for _, s := range registry.Sources {
		if s.Kind == SourcePeer && s.URL != "" {
			peers = append(peers, s)
		}
	}
	return peers
}

// streamVerified asks the best available source for every package the
// entries name, in one stream, and hands each member to unpack as it
// arrives; the fetcher has verified it end to end against the frontend's
// manifest entry by then, which is what makes peers trustless. A peer that
// errors, serves a corrupt body or does not hold a package is demoted and
// the rest of the list is asked of the next source immediately (no retry
// budget spent); only a frontend failure propagates to the caller's retry
// loop. Verified packages land in the node's relay store so this node can
// re-serve them after install-complete.
func streamVerified(ctx context.Context, n *node.Node, cfg Config, f *dist.Fetcher, screen io.Writer, srcs *sourceSet, entries []dist.ManifestEntry, unpack func(*rpm.Package) error) error {
	for {
		src := srcs.pick()
		var unpackErr error
		last := time.Now()
		got, err := f.Packages(ctx, src.URL, entries, func(_ int, pkg *rpm.Package, nbytes int64) error {
			now := time.Now()
			cfg.Stats.fetched(src.Kind, nbytes, now.Sub(last))
			last = now
			if cfg.RelayStore != nil {
				cfg.RelayStore.Add(pkg)
			}
			unpackErr = unpack(pkg)
			return unpackErr
		})
		if err == nil || unpackErr != nil {
			return err
		}
		entries = entries[got:] // err is the failure of entries[0] now
		if errors.Is(err, dist.ErrCorruptBody) {
			// The event names the source that served the body, so a
			// relay demotion is auditable in /v1/events.
			cfg.Stats.corrupt()
			emit(cfg, n, lifecycle.EventPackageCorrupt,
				fmt.Sprintf("%s.rpm failed digest verification (source: %s)", entries[0].NVRA, src))
			fmt.Fprintf(screen, "package %s.rpm from %s failed digest verification; discarding\n", entries[0].NVRA, src)
		}
		if src.Kind != SourcePeer || ctx.Err() != nil {
			return err
		}
		cfg.Stats.demotePeer()
		srcs.demote(src)
		fmt.Fprintf(screen, "demoting relay %s: %v\n", src.URL, err)
		emit(cfg, n, lifecycle.EventRelayDemoted, fmt.Sprintf("%s demoted: %v", src, err))
	}
}
