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
	"strings"
	"time"

	"rocks/internal/rpm"
)

// The client half of the distribution protocol. Every consumer of a served
// tree — rocks-dist mirroring a parent (§6.2.3), a child frontend's delta
// re-mirror, an installing node pulling packages from the frontend or a peer
// relay (§6.3) — fetches through one Fetcher, so there is one classification
// of failures, one retry loop, one way to pull a set of packages (a verified
// stream, Packages, resumed where it stopped by Stream) and one place where a
// network-fetched body is checked against the manifest (verify). Consumers
// keep their policy (which source to try, whom to demote, what to report
// where) and none of the transport.

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

// statusError is a non-200 answer; Index names a 404 for what it means.
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
	// Held, when set, is what Packages decodes the bodies it verifies
	// through (rpm.Held.Decode); nil decodes every body afresh.
	Held *rpm.Held
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

// Get performs one GET and returns the body of a 200 answer as text, read
// into one allocation sized by its declared length (at most maxPresize),
// classified as open classifies it. header, when non-nil, becomes the
// request's header (the kickstart CGI keys on the client's address).
func (f *Fetcher) Get(ctx context.Context, u string, header http.Header) (string, error) {
	resp, err := f.open(ctx, http.MethodGet, u, header, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var text strings.Builder
	text.Grow(int(min(max(resp.ContentLength, 0), maxPresize)))
	br := bundleReaders.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	_, err = br.WriteTo(&text)
	br.Reset(nil)
	bundleReaders.Put(br)
	if err != nil {
		return "", Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
	}
	return text.String(), nil
}

// Index retrieves and parses the digest manifest of the distribution at
// base, with retries: the entries carry the size and payload digest every
// fetched body must match. A garbled manifest is a torn transfer. There is
// no unverified index: a 404 is permanent and says the server serves none.
func (f *Fetcher) Index(ctx context.Context, base string) (entries []ManifestEntry, err error) {
	u := strings.TrimSuffix(base, "/") + manifestPath
	err = f.Do(ctx, "manifest", func() error {
		text, err := f.Get(ctx, u, nil)
		if err == nil {
			entries = entries[:0]
			if err = scanManifest(text, func(e ManifestEntry) { entries = append(entries, e) }); err != nil {
				err = Transient(fmt.Errorf("dist: fetching %s: %w", u, err))
			}
		}
		return err
	})
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusNotFound {
		err = fmt.Errorf("dist: %s serves no digest manifest, and nothing is fetched unverified: %w", base, err)
	}
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Stream pulls entries until every one has been delivered, resuming at the
// member a pull stopped at. pull asks for rest, a suffix of entries, and
// returns how many members it delivered and the error that stopped it. The
// retry budget (Do) belongs to the member a pull failed at: a pull that
// delivered anything has spent the first attempt of the member it stopped
// at, not another of the one it started from, so a stream cut short any
// number of times resumes where it stopped, and only a member that keeps
// failing exhausts one. A done context stops it between pulls.
func (f *Fetcher) Stream(ctx context.Context, entries []ManifestEntry, pull func(rest []ManifestEntry) (done int, err error)) error {
	var carried error
	for len(entries) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.Do(ctx, entries[0].NVRA+".rpm", func() error {
			if err := carried; err != nil {
				carried = nil
				return err
			}
			done, err := pull(entries)
			entries = entries[done:]
			if err != nil && done > 0 && IsTransient(err) {
				carried, err = err, nil
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Packages makes one attempt to fetch every package the entries name from
// the distribution at base with one request (the bundle verb, http.go), and
// hands each member to each as it arrives — its index in entries, the
// decoded package and its body bytes — after verifying it end to end
// (verify). It returns how many members were verified and accepted by each,
// in request order, and the error that stopped it: the failure of member done,
// naming its file and the source. A torn stream is transient, a member that
// fails verification transient and ErrCorruptBody, a member the tree does
// not hold permanent (the 404 of a GET); an error from each comes back as it
// is. Cancellation lands between members. A caller resumes by asking for
// entries[done:], of this source or another; Stream does that.
func (f *Fetcher) Packages(ctx context.Context, base string, entries []ManifestEntry, each func(i int, p *rpm.Package, n int64) error) (done int, err error) {
	if len(entries) == 0 {
		return 0, nil
	}
	size := 0
	for _, e := range entries {
		size += len(e.NVRA) + 1 // a name that escapes longer grows the buffer
	}
	ask := make([]byte, 0, size)
	for _, e := range entries {
		ask = append(appendPathEscaped(ask, e.NVRA), '\n')
	}
	resp, err := f.open(ctx, http.MethodPost, strings.TrimSuffix(base, "/")+rpmsPath, nil, bytes.NewReader(ask))
	if err != nil {
		// No answer is the first member's failure, and names its file.
		return 0, fmt.Errorf("dist: asking for %s.rpm and %d more: %w", entries[0].NVRA, len(entries)-1, err)
	}
	defer resp.Body.Close()
	return readBundle(ctx, f.Held, resp.Body, base, entries, each)
}

// readBundle reads a source's answer to a bundle request for entries. Every
// length in it is the source's claim: a member's buffer is sized by at most
// maxPresize up front and grows as bytes actually arrive, as in Get.
func readBundle(ctx context.Context, held *rpm.Held, r io.Reader, base string, entries []ManifestEntry, each func(i int, p *rpm.Package, n int64) error) (int, error) {
	br := bundleReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer bundleReaders.Put(br)
	defer br.Reset(nil) // runs first
	var (
		header [bundleHeaderLen]byte
		// One buffer for every member of the stream: a decoded package shares
		// no memory with it, so the next member may overwrite this one.
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
		p, err := verify(held, member.Bytes(), e, base)
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
// payload), identify as the entry's NVRA, and hash to the entry's digest.
// The manifest always comes from the trusted side, so a source that serves
// anything else cannot get it past this function; every failure is transient
// and wraps ErrCorruptBody, naming the file and the source.
func verify(held *rpm.Held, body []byte, e ManifestEntry, base string) (*rpm.Package, error) {
	p, err := held.Decode(body)
	if err != nil {
		return nil, corruptBody(e.NVRA+".rpm", base, err.Error())
	}
	if !p.IsNVRA(e.NVRA) {
		// A substituted file, or a bit flip in the metadata region that the
		// payload digest cannot see.
		return nil, corruptBody(e.NVRA+".rpm", base, "body identifies as "+p.Filename())
	}
	if p.Digest != e.Digest {
		return nil, corruptBody(e.NVRA+".rpm", base, "payload digest does not match the distribution manifest")
	}
	return p, nil
}
