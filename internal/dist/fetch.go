package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rocks/internal/rpm"
)

// The client half of the distribution protocol. Every consumer of a served
// tree — rocks-dist mirroring a parent (§6.2.3), a child frontend's delta
// re-mirror, an installing node pulling packages from the frontend or a peer
// relay (§6.3) — fetches through one Fetcher, so there is one classification
// of failures, one retry loop, and one place where a network-fetched body is
// checked against the manifest. Consumers keep their policy (which source to
// try, whom to demote, what to report where) and none of the transport.

// ErrCorruptBody marks a fetched package body that failed verification: it
// no longer decodes (the embedded digest caught a torn or flipped transfer),
// it identifies as a different package, or it is a self-consistent package
// whose digest is not the one the manifest advertises. All three are
// transient — a retry fetches a fresh copy — and callers count them with
// errors.Is.
var ErrCorruptBody = errors.New("package body failed digest verification")

// transientError marks a failure a retry may heal.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as worth retrying under Fetcher.Do. The fetcher
// classifies its own failures; this is for a caller running some other
// request (the installer's facts report) under the same budget.
func Transient(err error) error { return &transientError{err} }

// IsTransient reports whether a fetch error is worth retrying: connection
// failures, 5xx answers, torn bodies, and corrupt package bodies. Anything
// else — a 4xx, a malformed URL — will not heal on its own.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// statusError is a non-200 answer; Index keys its listing fallback on 404.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// defaultClient bounds every fetch: http.DefaultClient has no timeout, so
// one hung package request could wedge a replication pass or an install
// forever.
var defaultClient = &http.Client{Timeout: 60 * time.Second}

// maxBackoff caps the doubling retry wait, so a deep attempt budget against
// a dead server waits minutes, not days. A base above the cap stays as set.
const maxBackoff = 30 * time.Second

// maxPresize bounds the buffer a declared Content-Length can make Get
// allocate before any byte of the body has arrived.
const maxPresize = 1 << 20

// Fetcher is the distribution protocol's client. The zero value is a
// sensible production default.
type Fetcher struct {
	// HTTP performs the requests; nil means a shared 60-second-timeout
	// client (never the timeout-less http.DefaultClient).
	HTTP *http.Client
	// Attempts is the budget per fetch, the first try included; <= 0 means
	// 3. Only transient failures (IsTransient) are retried.
	Attempts int
	// Backoff is the wait before the second attempt, doubling per attempt
	// up to 30 s; <= 0 means 100ms.
	Backoff time.Duration
	// OnRetry, when set, is told of every transient failure about to be
	// retried: what was being fetched, the error, which try failed (from
	// 1), and the wait before the next. Callers count and display retries
	// here; it must not block.
	OnRetry func(what string, err error, try int, wait time.Duration)
}

// Do runs attempt under the retry budget: transient failures are retried
// with capped exponential backoff, anything else returns at once. A done
// context stops the loop — between attempts and inside a backoff wait — so
// a cancelled caller returns within one step instead of grinding through
// the budget against a server that will never answer. The error of an
// exhausted budget still satisfies IsTransient.
func (f *Fetcher) Do(ctx context.Context, what string, attempt func() error) error {
	attempts, wait := f.Attempts, f.Backoff
	if attempts <= 0 {
		attempts = 3
	}
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	ceiling := max(maxBackoff, wait)
	for try := 1; ; try++ {
		err := attempt()
		if err == nil || !IsTransient(err) || ctx.Err() != nil {
			return err
		}
		if try >= attempts {
			if attempts > 1 {
				err = fmt.Errorf("dist: giving up on %s after %d attempts: %w", what, attempts, err)
			}
			return err
		}
		if f.OnRetry != nil {
			f.OnRetry(what, err, try, wait)
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("dist: retry of %s aborted: %w", what, ctx.Err())
		}
		wait = min(2*wait, ceiling)
	}
}

// Get performs one GET and returns the body of a 200 answer. Connection
// failures, torn bodies and 5xx answers are transient; any other status is
// permanent. Errors name the URL. header, when non-nil, becomes the
// request's header (the kickstart CGI keys on the client's address).
func (f *Fetcher) Get(ctx context.Context, u string, header http.Header) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if header != nil {
		req.Header = header
	}
	client := f.HTTP
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
	}
	defer resp.Body.Close()
	// io.ReadAll, but into a buffer sized up front when the server declared
	// a length (every package body; the spare MinRead lets ReadFrom see EOF
	// without growing). The declaration is a peer's claim, so it sizes at
	// most maxPresize; a longer body grows as its bytes actually arrive.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		err := &statusError{resp.StatusCode, fmt.Sprintf("dist: fetching %s: HTTP %s: %s",
			u, resp.Status, bytes.TrimSpace(body[:min(len(body), 200)]))}
		if resp.StatusCode >= 500 {
			return nil, Transient(err)
		}
		return nil, err
	}
	return body, nil
}

// Index retrieves what the distribution at base advertises, with retries.
// It asks for the digest manifest; the entries then carry sizes and the
// payload digest every fetched body must match, and verified is true. Only
// when the server answers 404 for the manifest — a stock mirror that has
// never heard of one, the paper's wget case — does it fall back to the bare
// RedHat/RPMS/ listing, whose entries carry a name and nothing else
// (verified false: no delta, no verification). Any other manifest failure
// is retried and then returned: a fault must never be able to switch
// verification off.
func (f *Fetcher) Index(ctx context.Context, base string) (entries []ManifestEntry, verified bool, err error) {
	base = strings.TrimSuffix(base, "/")
	err = f.Do(ctx, "manifest", func() error {
		body, err := f.Get(ctx, base+manifestPath, nil)
		if err != nil {
			return err
		}
		if entries, err = ParseManifest(body); err != nil {
			// A garbled manifest is a torn transfer.
			return Transient(fmt.Errorf("dist: fetching %s: %w", base+manifestPath, err))
		}
		return nil
	})
	if err == nil {
		return entries, true, nil
	}
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusNotFound {
		return nil, false, err
	}
	err = f.Do(ctx, "package listing", func() error {
		body, err := f.Get(ctx, base+rpmsPath, nil)
		if err != nil {
			return err
		}
		entries = entries[:0]
		for _, field := range strings.Fields(string(body)) {
			if nvra, ok := strings.CutSuffix(unescapeField(field), ".rpm"); ok {
				entries = append(entries, ManifestEntry{NVRA: nvra})
			}
		}
		return nil
	})
	return entries, false, err
}

// Package makes one attempt to fetch the package an index entry names from
// the distribution at base (the frontend, a parent, or a peer relay — any
// server of the protocol) and verifies the body end to end: it must decode,
// identify as the entry's NVRA, and — when the entry carries a digest —
// hash to it. The manifest always comes from the trusted side, so a source
// that serves anything else cannot get it past this function; every such
// failure wraps ErrCorruptBody. It returns the decoded package and the
// number of body bytes transferred. Errors name the file and the source.
func (f *Fetcher) Package(ctx context.Context, base string, e ManifestEntry) (*rpm.Package, int64, error) {
	file := e.NVRA + ".rpm"
	body, err := f.Get(ctx, strings.TrimSuffix(base, "/")+rpmsPath+url.PathEscape(file), nil)
	if err != nil {
		return nil, 0, err
	}
	corrupt := func(why string) error {
		return Transient(fmt.Errorf("dist: verifying %s from %s: %w (%s)", file, base, ErrCorruptBody, why))
	}
	p, err := rpm.Read(bytes.NewReader(body))
	if err != nil {
		return nil, 0, corrupt(err.Error())
	}
	if p.Filename() != file {
		// A substituted file, or a bit flip in the metadata region that the
		// payload digest cannot see.
		return nil, 0, corrupt("body identifies as " + p.Filename())
	}
	if e.Digest != "" && p.EnsureDigest() != e.Digest {
		return nil, 0, corrupt("payload digest does not match the distribution manifest")
	}
	return p, int64(len(body)), nil
}
