package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/rpm"
)

// MirrorOptions tunes a replication pass. The zero value is a sensible
// production default.
type MirrorOptions struct {
	// Fetcher is the protocol client the pass fetches through: its HTTP
	// client, per-file attempt budget and backoff.
	Fetcher
	// Workers bounds concurrent package fetches; <= 0 means 8 — enough to
	// keep a campus→department link busy without stampeding the parent.
	Workers int
	// Baseline, when set, turns the pass into a delta: packages whose
	// manifest digest matches a baseline package (a previous mirror of the
	// same parent, or a tree loaded with ReadTree) are reused by reference
	// and their bodies are never fetched — the paper's "pay only for what
	// changed" update pass. A parent that serves no manifest gives the
	// delta nothing to compare, and the pass is a full fetch.
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
	// Verified counts fetched bodies checked against a manifest digest.
	Verified int `json:"verified"`
	// CorruptBodies counts bodies that arrived failing their digest check
	// and were discarded; each costs one retry from the per-file budget.
	CorruptBodies int `json:"corrupt_bodies"`
	// ManifestUsed reports whether the parent served a digest manifest;
	// false means a legacy listing-only parent (no delta, no verification).
	ManifestUsed bool `json:"manifest_used"`
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
	if !r.ManifestUsed {
		s += " (parent serves no manifest: full fetch, unverified)"
	}
	return s + fmt.Sprintf(", in %v", r.Duration)
}

// Mirror replicates a served distribution's packages into a local
// repository — the wget step of Figure 6. baseURL addresses the server's
// root (e.g. "http://10.1.1.1/install/dist"); the returned repository's
// packages carry name as provenance. Packages are fetched by a bounded
// worker pool with per-file retries, so replication scales with package
// count (§6.2.3) instead of serializing on round trips, and a single bad
// file fails the pass with an error naming the file. When the parent serves
// a digest manifest every fetched body is verified against it — a mismatch
// is retried, then fails naming the file — and a Baseline turns the pass
// into a delta that fetches only packages whose digest is missing or
// changed. Cancelling ctx aborts in-flight fetches and cuts retry backoffs
// short, so the pass returns within one backoff step.
func Mirror(ctx context.Context, baseURL, name string, opts MirrorOptions) (*rpm.Repository, MirrorReport, error) {
	start := time.Now()
	var report MirrorReport
	f := &opts.Fetcher
	workers := opts.Workers
	if workers <= 0 {
		workers = 8
	}

	entries, verified, err := f.Index(ctx, baseURL)
	if err != nil {
		return nil, report, fmt.Errorf("dist: mirroring %s: %w", baseURL, err)
	}
	report.ManifestUsed, report.Listed = verified, len(entries)

	repo := rpm.NewRepository(name)
	var items []ManifestEntry
	for _, e := range entries {
		if e.Digest != "" && opts.Baseline != nil {
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
		items = append(items, e)
	}

	// Fetch into a listing-indexed slice so the result is deterministic
	// regardless of worker interleaving; the first failing file (in listing
	// order) wins the error.
	pkgs := make([]*rpm.Package, len(items))
	errs := make([]error, len(items))
	var failed atomic.Bool
	var next, fetchedBytes, corrupt atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || failed.Load() {
					return
				}
				errs[i] = f.Do(ctx, items[i].NVRA+".rpm", func() error {
					p, n, err := f.Package(ctx, baseURL, items[i])
					if errors.Is(err, ErrCorruptBody) {
						corrupt.Add(1)
					}
					if err != nil {
						return err
					}
					p.Source = name
					pkgs[i] = p
					fetchedBytes.Add(n)
					return nil
				})
				if errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	report.CorruptBodies = int(corrupt.Load())
	report.FetchedBytes = fetchedBytes.Load()
	for _, e := range errs {
		if e != nil {
			return nil, report, e
		}
	}
	// No error recorded means every index was claimed and filled.
	for i, p := range pkgs {
		repo.Add(p)
		report.Fetched++
		if items[i].Digest != "" {
			report.Verified++
		}
	}
	report.Duration = time.Since(start)
	return repo, report, nil
}
