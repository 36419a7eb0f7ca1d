package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// checked against the manifest (verify), whether it came alone (Package, the
// mirror's verb: it works against a stock tree) or as a member of a stream
// (Packages, the installer's). Consumers keep their policy (which source to
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
// one hung request could wedge a replication pass or an install forever. For
// Packages the bound is on one stream, not one package: a stream it cuts
// short has verified what it delivered, and the caller resumes at the member
// it stopped at under that member's own budget, so the timeout limits how
// long a stalled source can hold an install, not how long an install may take.
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

// open performs one request and returns a 200 answer with its body unread;
// the caller closes it. Connection failures, torn answers and 5xx answers
// are transient; any other status is permanent. Errors name the URL.
// header, when non-nil, becomes the request's header.
func (f *Fetcher) open(ctx context.Context, method, u string, header http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, u, body)
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
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	// The answer's body is its reason; a peer's may be any length.
	reason, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return nil, Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
	}
	err = &statusError{resp.StatusCode, fmt.Sprintf("dist: fetching %s: HTTP %s: %s",
		u, resp.Status, bytes.TrimSpace(reason[:min(len(reason), 200)]))}
	if resp.StatusCode >= 500 {
		return nil, Transient(err)
	}
	return nil, err
}

// Get performs one GET and returns the body of a 200 answer, classified as
// open classifies it. header, when non-nil, becomes the request's header
// (the kickstart CGI keys on the client's address).
func (f *Fetcher) Get(ctx context.Context, u string, header http.Header) ([]byte, error) {
	resp, err := f.open(ctx, http.MethodGet, u, header, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// io.ReadAll, but into a buffer sized up front when the server declared
	// a length (every package body and the manifest; the spare MinRead lets
	// ReadFrom see EOF without growing). The declaration is a peer's claim,
	// so it sizes at most maxPresize; a longer body grows as its bytes
	// actually arrive.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
	}
	return buf.Bytes(), nil
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
// server of the protocol, a stock tree included) with one GET, and verifies
// the body end to end (verify). It returns the decoded package and the number
// of body bytes transferred. Errors name the file and the source.
func (f *Fetcher) Package(ctx context.Context, base string, e ManifestEntry) (*rpm.Package, int64, error) {
	body, err := f.Get(ctx, strings.TrimSuffix(base, "/")+rpmsPath+url.PathEscape(e.NVRA+".rpm"), nil)
	if err != nil {
		return nil, 0, err
	}
	p, err := verify(body, e, base)
	if err != nil {
		return nil, 0, err
	}
	return p, int64(len(body)), nil
}

// Packages makes one attempt to fetch every package the entries name from
// the distribution at base with one request (the bundle verb, http.go), and
// hands each member to each as it arrives — its index in entries, the
// decoded package and its body bytes — after verifying it exactly as Package
// does. It returns how many members were verified and accepted by each, in
// request order, and the error that stopped it: the failure of member done,
// naming its file and the source. A torn stream is transient, a member that
// fails verification transient and ErrCorruptBody, a member the tree does
// not hold permanent (the 404 of a GET); an error from each comes back as it
// is. Cancellation lands between members. A caller resumes by asking for
// entries[done:], of this source or another.
func (f *Fetcher) Packages(ctx context.Context, base string, entries []ManifestEntry, each func(i int, p *rpm.Package, n int64) error) (done int, err error) {
	if len(entries) == 0 {
		return 0, nil
	}
	var ask strings.Builder
	for _, e := range entries {
		ask.WriteString(url.PathEscape(e.NVRA))
		ask.WriteByte('\n')
	}
	resp, err := f.open(ctx, http.MethodPost, strings.TrimSuffix(base, "/")+rpmsPath, nil, strings.NewReader(ask.String()))
	if err != nil {
		// No answer is the first member's failure, and names its file.
		return 0, fmt.Errorf("dist: asking for %s.rpm and %d more: %w", entries[0].NVRA, len(entries)-1, err)
	}
	defer resp.Body.Close()
	return readBundle(ctx, resp.Body, base, entries, each)
}

// readBundle reads a source's answer to a bundle request for entries. Every
// length in it is the source's claim: a member's buffer is sized by at most
// maxPresize up front and grows as bytes actually arrive, as in Get.
func readBundle(ctx context.Context, r io.Reader, base string, entries []ManifestEntry, each func(i int, p *rpm.Package, n int64) error) (int, error) {
	br := bufio.NewReaderSize(r, bundleBuffer)
	var (
		header [bundleHeaderLen]byte
		// One buffer for every member of the stream: rpm.Decode copies what
		// the package keeps, so the next member may overwrite this one.
		member  bytes.Buffer
		limited = io.LimitedReader{R: br}
	)
	for i, e := range entries {
		torn := func(err error) error {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Transient(fmt.Errorf("dist: fetching %s.rpm from %s: %w", e.NVRA, base, err))
		}
		if err := ctx.Err(); err != nil {
			return i, torn(err)
		}
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return i, torn(err)
		}
		length, bodySum, ok := parseBundleHeader(&header)
		if ok && length == bundleNotHeld {
			return i, &statusError{http.StatusNotFound,
				fmt.Sprintf("dist: fetching %s.rpm from %s: the tree does not hold it", e.NVRA, base)}
		}
		n := int64(length)
		if !ok || n < 0 {
			return i, corruptBody(e.NVRA+".rpm", base, "member header damaged")
		}
		member.Reset()
		member.Grow(int(min(n, maxPresize)) + bytes.MinRead)
		limited.N = n
		if _, err := member.ReadFrom(&limited); err != nil {
			return i, torn(err)
		}
		if int64(member.Len()) < n {
			return i, torn(io.ErrUnexpectedEOF)
		}
		if crc32.ChecksumIEEE(member.Bytes()) != bodySum {
			return i, corruptBody(e.NVRA+".rpm", base, "body damaged in transit")
		}
		p, err := verify(member.Bytes(), e, base)
		if err != nil {
			return i, err
		}
		if err := each(i, p, n); err != nil {
			return i, err
		}
	}
	// Read the end of the answer, so the connection can carry the next
	// request. Anything a source sends past what was asked for is not read.
	br.Peek(1)
	return len(entries), nil
}

// corruptBody is the failure of a body that is not what the manifest
// advertises or not what its source sent: transient (a retry fetches a fresh
// copy) and ErrCorruptBody, naming the file and the source.
func corruptBody(file, base, why string) error {
	return Transient(fmt.Errorf("dist: verifying %s from %s: %w (%s)", file, base, ErrCorruptBody, why))
}

// verify is the one place where a network-fetched body is checked against
// the manifest: it must decode (the embedded digest catches a torn or flipped
// payload), identify as the entry's NVRA, and — when the entry carries a
// digest — hash to it. The manifest always comes from the trusted side, so a
// source that serves anything else cannot get it past this function; every
// failure is transient and wraps ErrCorruptBody, naming the file and the
// source.
func verify(body []byte, e ManifestEntry, base string) (*rpm.Package, error) {
	file := e.NVRA + ".rpm"
	p, err := rpm.Decode(body)
	if err != nil {
		return nil, corruptBody(file, base, err.Error())
	}
	if p.Filename() != file {
		// A substituted file, or a bit flip in the metadata region that the
		// payload digest cannot see.
		return nil, corruptBody(file, base, "body identifies as "+p.Filename())
	}
	if e.Digest != "" && p.EnsureDigest() != e.Digest {
		return nil, corruptBody(file, base, "payload digest does not match the distribution manifest")
	}
	return p, nil
}
