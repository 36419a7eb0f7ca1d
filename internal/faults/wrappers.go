package faults

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rocks/internal/dhcp"
	"rocks/internal/hardware"
)

// ErrWedged is the root of every injected mid-install wedge.
var ErrWedged = errors.New("faults: node wedged mid-install")

// ErrPowerCycle is the root of every injected power-control failure.
var ErrPowerCycle = errors.New("faults: power controller ignored cycle command")

// WrapResponder interposes on a DHCP responder: affirmative replies
// (OFFER/ACK) selected by OpDHCPOffer rules are dropped on the floor, so
// the client's broadcast goes unanswered and its retry loop runs — the
// flaky-switch/lossy-segment failure the big-cluster reports describe.
func WrapResponder(next dhcp.Responder, inj *Injector) dhcp.Responder {
	return responderFunc(func(p dhcp.Packet) (dhcp.Packet, bool) {
		reply, ok := next.HandleDHCP(p)
		if !ok {
			return reply, ok
		}
		if _, drop := inj.ShouldInject(OpDHCPOffer, p.MAC, reply.Hostname); drop {
			return dhcp.Packet{}, false
		}
		return reply, ok
	})
}

type responderFunc func(dhcp.Packet) (dhcp.Packet, bool)

func (f responderFunc) HandleDHCP(p dhcp.Packet) (dhcp.Packet, bool) { return f(p) }

// Transport wraps an HTTP transport with fault injection. Requests are
// classified by path: the kickstart CGI consults OpHTTPKickstart rules, the
// two /v1 calls an installer makes their own seams, and everything else —
// the distribution protocol: manifest, listing, RPM payloads alone or as a
// stream — consults OpHTTPPackage. The identities callback supplies the requesting host's
// names at call time — a node learns its hostname mid-install, so identity
// must be late-bound.
type Transport struct {
	inj        *Injector
	next       http.RoundTripper
	identities func() []string
}

// NewTransport builds a fault-injecting RoundTripper. next nil means
// http.DefaultTransport; identities nil means no host identity (rules must
// match with a wildcard).
func NewTransport(inj *Injector, next http.RoundTripper, identities func() []string) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	if identities == nil {
		identities = func() []string { return nil }
	}
	return &Transport{inj: inj, next: next, identities: identities}
}

// classifyPath maps a URL path to the HTTP seam it belongs to.
func classifyPath(path string) Op {
	if strings.Contains(path, "kickstart.cgi") {
		return OpHTTPKickstart
	}
	if strings.Contains(path, "/v1/relays") {
		return OpHTTPRelays
	}
	if strings.Contains(path, "/v1/facts") {
		return OpHTTPFacts
	}
	return OpHTTPPackage
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := classifyPath(req.URL.Path)
	ids := append(t.identities(), "*")
	rule, fire := t.inj.ShouldInject(op, ids...)
	if !fire {
		return t.next.RoundTrip(req)
	}
	switch rule.Mode {
	case ModeLatency:
		time.Sleep(rule.Latency)
		return t.next.RoundTrip(req)
	case ModeTruncate, ModeCorrupt:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if rule.Mode == ModeTruncate {
			// Keep the advertised length, deliver half, and end the stream
			// with the unexpected-EOF a torn TCP connection produces.
			resp.Body = &truncatedBody{r: bytes.NewReader(body[:len(body)/2])}
			return resp, nil
		}
		resp.Body = io.NopCloser(bytes.NewReader(FlipBit(body)))
		resp.ContentLength = int64(len(body))
		return resp, nil
	default: // ModeError500
		body := "faults: injected server error\n"
		return &http.Response{
			Status:        "500 Internal Server Error",
			StatusCode:    http.StatusInternalServerError,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
}

// FlipBit returns a copy of body with one bit inverted at the midpoint —
// the canonical injected corruption. Deterministic (no PRNG draw) so a
// test that knows the clean bytes knows the corrupt ones too; flipping a
// payload-interior bit leaves framing intact, which is exactly the failure
// only end-to-end digests detect. Empty bodies pass through unchanged.
func FlipBit(body []byte) []byte {
	out := append([]byte(nil), body...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0x40
	}
	return out
}

// truncatedBody yields its bytes and then fails with ErrUnexpectedEOF,
// exactly as a connection dropped mid-body presents to io.ReadAll.
type truncatedBody struct{ r *bytes.Reader }

func (b *truncatedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return nil }

// Middleware interposes on the frontend's install endpoints server-side.
// The requesting host's identity is taken from clientIPHeader when present
// (the kickstart CGI contract) and the remote address otherwise.
func Middleware(inj *Injector, clientIPHeader string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids := []string{}
		if ip := r.Header.Get(clientIPHeader); ip != "" {
			ids = append(ids, ip)
		}
		if host, _, err := splitHostPort(r.RemoteAddr); err == nil {
			ids = append(ids, host)
		}
		ids = append(ids, "*")
		rule, fire := inj.ShouldInject(classifyPath(r.URL.Path), ids...)
		if !fire {
			next.ServeHTTP(w, r)
			return
		}
		switch rule.Mode {
		case ModeLatency:
			time.Sleep(rule.Latency)
			next.ServeHTTP(w, r)
		case ModeTruncate, ModeCorrupt:
			// Record the full response and advertise its status and length,
			// then either send half — the server aborts the connection and
			// the client sees an unexpected EOF — or deliver it complete
			// with one bit flipped in the middle.
			rec := &recorder{header: http.Header{}, code: http.StatusOK}
			next.ServeHTTP(rec, r)
			for k, v := range rec.header {
				w.Header()[k] = v
			}
			w.Header().Set("Content-Length", strconv.Itoa(rec.body.Len()))
			w.WriteHeader(rec.code)
			if rule.Mode == ModeTruncate {
				w.Write(rec.body.Bytes()[:rec.body.Len()/2])
			} else {
				w.Write(FlipBit(rec.body.Bytes()))
			}
		default: // ModeError500
			http.Error(w, "faults: injected server error", http.StatusInternalServerError)
		}
	})
}

// splitHostPort is net.SplitHostPort without the import weight; RemoteAddr
// in tests may already be a bare host.
func splitHostPort(addr string) (string, string, error) {
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[:i], addr[i+1:], nil
	}
	return addr, "", nil
}

// recorder buffers a handler's response for the truncating middleware.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// PowerInterceptor adapts the injector to the PDU's interceptor hook: an
// OpPowerCycle firing makes the hard-cycle command fail without touching
// the machine.
func PowerInterceptor(inj *Injector) func(outlet int, label string) error {
	return func(outlet int, label string) error {
		if _, fire := inj.ShouldInject(OpPowerCycle, label, fmt.Sprintf("outlet-%d", outlet)); fire {
			return fmt.Errorf("%w: outlet %d (%s)", ErrPowerCycle, outlet, label)
		}
		return nil
	}
}

// SkewFacts returns the deterministic perturbation ModeFactsSkew applies to
// a reported hardware profile: the architecture gains a "-drift" suffix and
// the disk size halves (both actionable — a reinstall re-probes them), and
// MemMB shrinks by 2% (inside the frontend's default drift tolerance, so it
// must be classified as benign). No PRNG draw: a test that knows the clean
// profile knows the skewed one exactly.
func SkewFacts(p hardware.Profile) hardware.Profile {
	p.Arch += "-drift"
	p.Disk.SizeMB /= 2
	p.MemMB -= p.MemMB / 50
	return p
}

// FactsHook adapts the injector to the installer's facts-agent seam: when
// an OpFactsReport rule fires for the node, the profile the agent is about
// to report is skewed (SkewFacts); otherwise it passes through untouched.
// Only what is *reported* is perturbed — the machine's real hardware is
// intact, so the reinstall the supervisor orders converges once the rule's
// Count budget is exhausted.
func FactsHook(inj *Injector, identities func() []string) func(p hardware.Profile) hardware.Profile {
	if identities == nil {
		identities = func() []string { return nil }
	}
	return func(p hardware.Profile) hardware.Profile {
		ids := append(identities(), "*")
		if _, fire := inj.ShouldInject(OpFactsReport, ids...); fire {
			return SkewFacts(p)
		}
		return p
	}
}

// InstallHook adapts the injector to the installer's fault hook: an
// OpInstallWedge firing kills the install at the stage boundary where it
// was consulted.
func InstallHook(inj *Injector, identities func() []string) func(stage string) error {
	if identities == nil {
		identities = func() []string { return nil }
	}
	return func(stage string) error {
		ids := append(identities(), "*")
		if _, fire := inj.ShouldInject(OpInstallWedge, ids...); fire {
			return fmt.Errorf("%w at stage %q", ErrWedged, stage)
		}
		return nil
	}
}
