package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rocks/internal/dhcp"
	"rocks/internal/syslogd"
)

func TestDeterministicSequence(t *testing.T) {
	run := func() []Injection {
		inj := NewInjector(42, Rule{Op: OpDHCPOffer, Prob: 0.5})
		for i := 0; i < 100; i++ {
			inj.ShouldInject(OpDHCPOffer, "compute-0-0")
		}
		return inj.Injected()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("prob 0.5 over 100 events fired %d times; rule is not probabilistic", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0].Seq != 1 {
		t.Errorf("first injection Seq = %d, want 1", a[0].Seq)
	}
}

func TestCountCapAndExhaustion(t *testing.T) {
	inj := NewInjector(1, Rule{Op: OpPowerCycle, Count: 3})
	if inj.Exhausted() {
		t.Fatal("fresh injector reports exhausted")
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if _, ok := inj.ShouldInject(OpPowerCycle, "node"); ok {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("capped rule fired %d times, want 3", fired)
	}
	if !inj.Exhausted() {
		t.Error("rule at its cap must report exhausted")
	}
	if inj.CountOp(OpPowerCycle) != 3 || inj.CountOp(OpDHCPOffer) != 0 {
		t.Errorf("CountOp accounting wrong: %v", inj.Injected())
	}
}

func TestHostMatcher(t *testing.T) {
	cases := []struct {
		pattern, id string
		want        bool
	}{
		{"", "anything", true},
		{"*", "anything", true},
		{"compute-*", "compute-0-5", true},
		{"compute-*", "frontend-0", false},
		{"00:11:22", "00:11:22", true},
		{"00:11:22", "00:11:23", false},
	}
	for _, c := range cases {
		if got := matchHost(c.pattern, c.id); got != c.want {
			t.Errorf("matchHost(%q, %q) = %v, want %v", c.pattern, c.id, got, c.want)
		}
	}
}

func TestRuleTargetsOnlyMatchedHosts(t *testing.T) {
	inj := NewInjector(7, Rule{Op: OpDHCPOffer, Hosts: "compute-1-*"})
	if _, ok := inj.ShouldInject(OpDHCPOffer, "compute-0-0"); ok {
		t.Error("rule for compute-1-* fired on compute-0-0")
	}
	if _, ok := inj.ShouldInject(OpDHCPOffer, "aa:bb", "compute-1-3"); !ok {
		t.Error("rule for compute-1-* did not fire on compute-1-3")
	}
	if got := inj.Injected(); len(got) != 1 || got[0].Host != "compute-1-3" {
		t.Errorf("log = %v", got)
	}
}

func TestWrapResponderDropsOffers(t *testing.T) {
	srv := dhcp.NewServer("frontend-0", syslogd.New())
	srv.SetBinding("aa:bb:cc", dhcp.Binding{IP: "10.1.255.254", Hostname: "compute-0-0"})
	inj := NewInjector(3, Rule{Op: OpDHCPOffer, Hosts: "aa:bb:cc", Count: 2})
	bus := dhcp.NewBus()
	bus.Register(WrapResponder(srv, inj))

	drops, answers := 0, 0
	for i := 0; i < 5; i++ {
		if _, ok := bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, Xid: uint32(i), MAC: "aa:bb:cc"}); ok {
			answers++
		} else {
			drops++
		}
	}
	if drops != 2 || answers != 3 {
		t.Errorf("drops = %d answers = %d, want 2 and 3", drops, answers)
	}
}

func TestTransportError500(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	defer backend.Close()

	inj := NewInjector(5, Rule{Op: OpHTTPPackage, Count: 1})
	client := &http.Client{Transport: NewTransport(inj, nil, func() []string { return []string{"compute-0-0"} })}

	resp, err := client.Get(backend.URL + "/install/dist/RedHat/RPMS/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("first fetch status = %d, want 500", resp.StatusCode)
	}
	resp, err = client.Get(backend.URL + "/install/dist/RedHat/RPMS/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "payload" {
		t.Errorf("after cap: status %d body %q", resp.StatusCode, body)
	}
}

func TestTransportTruncate(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 1000))
	}))
	defer backend.Close()

	inj := NewInjector(5, Rule{Op: OpHTTPPackage, Mode: ModeTruncate, Count: 1})
	client := &http.Client{Transport: NewTransport(inj, nil, nil)}
	resp, err := client.Get(backend.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Errorf("truncated read error = %v, want unexpected EOF", rerr)
	}
	if len(body) != 500 {
		t.Errorf("got %d bytes, want 500", len(body))
	}
}

func TestFlipBit(t *testing.T) {
	in := []byte("abcdefgh")
	out := FlipBit(in)
	if len(out) != len(in) {
		t.Fatalf("length changed: %d -> %d", len(in), len(out))
	}
	diff := 0
	for i := range in {
		if in[i] != out[i] {
			diff++
			if i != len(in)/2 {
				t.Errorf("byte %d changed, want only the midpoint", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes changed, want exactly 1", diff)
	}
	if string(in) != "abcdefgh" {
		t.Error("FlipBit mutated its input")
	}
	if got := FlipBit(nil); len(got) != 0 {
		t.Errorf("FlipBit(nil) = %v", got)
	}
}

// TestTransportAndMiddlewareCorrupt: the transport delivers a complete,
// correct-length 200 response with exactly one bit flipped — the silent
// corruption only an end-to-end digest check can catch — and hands back the
// clean bytes once the rule's budget is spent. (Named for the server-side
// seam it also covered until that seam was deleted; the transport is the
// only HTTP fault seam.)
func TestTransportAndMiddlewareCorrupt(t *testing.T) {
	clean := strings.Repeat("z", 800)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, clean)
	}))
	defer backend.Close()
	t.Run("transport", func(t *testing.T) {
		inj := NewInjector(9, Rule{Op: OpHTTPPackage, Mode: ModeCorrupt, Count: 1})
		client := &http.Client{Transport: NewTransport(inj, nil, nil)}
		get := func() (int, []byte) {
			resp, err := client.Get(backend.URL + "/RedHat/RPMS/pkg-1.0-1.i386.rpm")
			if err != nil {
				t.Fatal(err)
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatalf("corrupt body must still read to completion: %v", rerr)
			}
			return resp.StatusCode, body
		}
		code, body := get()
		if code != http.StatusOK || len(body) != len(clean) {
			t.Fatalf("corrupted response: status %d, %d bytes, want 200 and %d", code, len(body), len(clean))
		}
		diff := 0
		for i := range body {
			if body[i] != clean[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("%d bytes differ, want exactly 1", diff)
		}
		code, body = get()
		if code != http.StatusOK || string(body) != clean {
			t.Errorf("after cap: status %d, body clean=%v", code, string(body) == clean)
		}
	})
}

func TestTransportClassifiesKickstart(t *testing.T) {
	inj := NewInjector(5, Rule{Op: OpHTTPKickstart, Count: 1})
	client := &http.Client{Transport: NewTransport(inj, nil, nil)}
	// No backend needed: the 500 is synthesized before any dial.
	resp, err := client.Get("http://127.0.0.1:1/install/kickstart.cgi?arch=i386")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("kickstart status = %d, want 500", resp.StatusCode)
	}
	if got := inj.CountOp(OpHTTPKickstart); got != 1 {
		t.Errorf("kickstart injections = %d, want 1", got)
	}
}

// TestMiddlewareError500AndTruncate: a rule naming a host fires only for a
// client whose identities callback names it, a wildcard rule then tears
// the next body, and with both budgets spent the body arrives whole.
// (Named for the server-side seam it covered until that seam was deleted.)
func TestMiddlewareError500AndTruncate(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("y", 600))
	}))
	defer backend.Close()
	inj := NewInjector(9,
		Rule{Op: OpHTTPPackage, Hosts: "10.1.255.254", Count: 1},
		Rule{Op: OpHTTPPackage, Mode: ModeTruncate, Count: 1},
	)
	ids := []string{"10.1.255.254"}
	client := &http.Client{Transport: NewTransport(inj, nil, func() []string { return ids })}

	resp, err := client.Get(backend.URL + "/RedHat/RPMS/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("host-matched request: status %d, want 500", resp.StatusCode)
	}
	if log := inj.Injected(); len(log) != 1 || log[0].Host != "10.1.255.254" {
		t.Errorf("injection log = %+v, want one firing for 10.1.255.254", log)
	}

	ids = nil
	resp, err = client.Get(backend.URL + "/RedHat/RPMS/")
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(rerr, io.ErrUnexpectedEOF) || len(body) != 300 {
		t.Errorf("truncating transport: %d bytes, error %v; want 300 and unexpected EOF", len(body), rerr)
	}

	resp, err = client.Get(backend.URL + "/RedHat/RPMS/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 600 {
		t.Errorf("after caps: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

func TestPowerInterceptorAndInstallHook(t *testing.T) {
	inj := NewInjector(11,
		Rule{Op: OpPowerCycle, Count: 1},
		Rule{Op: OpInstallWedge, Hosts: "aa:bb", Count: 1},
	)
	pi := PowerInterceptor(inj)
	if err := pi(4, "aa:bb"); !errors.Is(err, ErrPowerCycle) {
		t.Errorf("first cycle err = %v, want ErrPowerCycle", err)
	}
	if err := pi(4, "aa:bb"); err != nil {
		t.Errorf("capped interceptor still failing: %v", err)
	}

	hook := InstallHook(inj, func() []string { return []string{"aa:bb"} })
	if err := hook("partition"); !errors.Is(err, ErrWedged) {
		t.Errorf("hook err = %v, want ErrWedged", err)
	}
	if err := hook("partition"); err != nil {
		t.Errorf("capped hook still failing: %v", err)
	}
	other := InstallHook(inj, func() []string { return []string{"cc:dd"} })
	if err := other("partition"); err != nil {
		t.Errorf("host-targeted wedge hit wrong host: %v", err)
	}
}
