package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rocks/internal/rpm"
)

// MirrorOptions tunes a replication pass. The zero value is a sensible
// production default.
type MirrorOptions struct {
	// Fetcher is the protocol client the pass fetches through: its HTTP
	// client, per-package attempt budget and backoff.
	Fetcher
	// Baseline, when set, turns the pass into a delta: packages whose
	// manifest digest matches a baseline package (a previous mirror of the
	// same parent, or a tree loaded with ReadTree) are reused by reference
	// and their bodies are never fetched — the paper's "pay only for what
	// changed" update pass.
	Baseline *rpm.Repository
}

// MirrorReport accounts for one replication pass: what the parent
// advertised, what the baseline already had, what was actually transferred,
// and how many bodies were digest-verified (and how many arrived corrupt
// and were retried).
type MirrorReport struct {
	// Listed counts packages the parent advertises.
	Listed int `json:"listed"`
	// Skipped counts packages reused from the baseline because their digest
	// already matched — no body fetched.
	Skipped int `json:"skipped"`
	// Fetched counts package bodies transferred, and FetchedBytes their
	// total serialized size.
	Fetched      int   `json:"fetched"`
	FetchedBytes int64 `json:"fetched_bytes"`
	// Verified counts fetched bodies checked against a manifest digest:
	// every one that was kept.
	Verified int `json:"verified"`
	// CorruptBodies counts bodies that arrived failing their digest check
	// and were discarded; each costs one attempt of the package it hit.
	CorruptBodies int `json:"corrupt_bodies"`
	// Duration is how long the pass took.
	Duration time.Duration `json:"duration"`
}

// Summary renders the one-line report rocks-dist prints after a pass.
func (r MirrorReport) Summary() string {
	s := fmt.Sprintf("rocks-dist: mirrored %d packages: %d unchanged (skipped), %d fetched (%d bytes), %d verified",
		r.Listed, r.Skipped, r.Fetched, r.FetchedBytes, r.Verified)
	if r.CorruptBodies > 0 {
		s += fmt.Sprintf(", %d corrupt bodies retried", r.CorruptBodies)
	}
	return s + fmt.Sprintf(", in %v", r.Duration)
}

// Mirror replicates a served distribution's packages into a local
// repository — the wget step of Figure 6. baseURL addresses the server's
// root (e.g. "http://10.1.1.1/install/dist"); the returned repository's
// packages carry name as provenance. The pass reads the parent's digest
// manifest (a parent that serves none is refused, Index), reuses every
// package a Baseline holds with the same digest, and pulls the rest in
// manifest order as one verified stream — the installer's verb, resumed
// where it stopped under the budget of the package it stopped at
// (Fetcher.Stream). A package that keeps failing fails the pass with an
// error naming it. Cancelling ctx cuts the stream and any retry backoff
// short, so the pass returns within one backoff step.
func Mirror(ctx context.Context, baseURL, name string, opts MirrorOptions) (*rpm.Repository, MirrorReport, error) {
	start := time.Now()
	var report MirrorReport
	f := &opts.Fetcher
	entries, err := f.Index(ctx, baseURL)
	if err != nil {
		return nil, report, fmt.Errorf("dist: mirroring %s: %w", baseURL, err)
	}
	report.Listed = len(entries)

	repo := rpm.NewRepository(name)
	var changed []ManifestEntry
	for _, e := range entries {
		if opts.Baseline != nil {
			if base := opts.Baseline.Get(e.NVRA); base != nil && base.Digest == e.Digest {
				// Unchanged content: inherit by reference (a shallow copy
				// so restamping provenance cannot mutate the baseline).
				reused := *base
				reused.Source = name
				repo.Add(&reused)
				report.Skipped++
				continue
			}
		}
		changed = append(changed, e)
	}

	err = f.Stream(ctx, changed, func(rest []ManifestEntry) (int, error) {
		done, err := f.Packages(ctx, baseURL, rest, func(_ int, p *rpm.Package, n int64) error {
			p.Source = name
			repo.Add(p)
			report.Fetched++
			report.FetchedBytes += n
			return nil
		})
		if errors.Is(err, ErrCorruptBody) {
			report.CorruptBodies++
		}
		return done, err
	})
	if err != nil {
		return nil, report, err
	}
	report.Verified = report.Fetched
	report.Duration = time.Since(start)
	return repo, report, nil
}
