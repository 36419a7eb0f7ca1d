package dhcp

import (
	"strings"
	"testing"
	"testing/quick"

	"rocks/internal/syslogd"
)

func TestMarshalRoundTrip(t *testing.T) {
	p := Packet{
		Type:       Discover,
		Xid:        0xdeadbeef,
		MAC:        "00:50:8b:e0:3a:a7",
		Hostname:   "compute-0-0",
		NextServer: "10.1.1.1",
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: got %+v, want %+v", got, p)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(typ byte, xid uint32, mac, ip, host, next string) bool {
		p := Packet{Type: MessageType(typ), Xid: xid, MAC: mac, YourIP: ip,
			Hostname: host, NextServer: next}
		got, err := Unmarshal(p.Marshal())
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("definitely not a packet"),
		Packet{Type: Discover}.Marshal()[:10], // truncated
		append(Packet{Type: Discover}.Marshal(), 0xff),        // trailing byte
		append([]byte{0, 0, 0, 0}, Packet{}.Marshal()[4:]...), // bad magic
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: Unmarshal accepted garbage", i)
		}
	}
}

func TestMessageTypeString(t *testing.T) {
	if Discover.String() != "DHCPDISCOVER" || Offer.String() != "DHCPOFFER" {
		t.Error("type names wrong")
	}
	if !strings.Contains(MessageType(99).String(), "99") {
		t.Error("unknown type should render numerically")
	}
}

func TestServerOffersKnownMAC(t *testing.T) {
	log := syslogd.New()
	s := NewServer("frontend-0", log)
	s.SetBinding("aa:bb", Binding{IP: "10.255.255.254", Hostname: "compute-0-0", NextServer: "10.1.1.1"})

	reply, ok := s.HandleDHCP(Packet{Type: Discover, Xid: 7, MAC: "aa:bb"})
	if !ok {
		t.Fatal("no offer for a known MAC")
	}
	if reply.Type != Offer || reply.YourIP != "10.255.255.254" ||
		reply.Hostname != "compute-0-0" || reply.NextServer != "10.1.1.1" || reply.Xid != 7 {
		t.Errorf("offer = %+v", reply)
	}
	ack, ok := s.HandleDHCP(Packet{Type: Request, Xid: 8, MAC: "aa:bb"})
	if !ok || ack.Type != Ack {
		t.Errorf("request → %+v, %v", ack, ok)
	}
}

func TestServerLogsUnknownMAC(t *testing.T) {
	log := syslogd.New()
	s := NewServer("frontend-0", log)
	_, ok := s.HandleDHCP(Packet{Type: Discover, MAC: "de:ad:be:ef:00:01"})
	if ok {
		t.Fatal("server answered an unknown MAC")
	}
	hits := log.Grep("de:ad:be:ef:00:01")
	if len(hits) != 1 {
		t.Fatalf("syslog entries = %v", hits)
	}
	if hits[0].Tag != "dhcpd" || !strings.Contains(hits[0].Text, "DHCPDISCOVER") {
		t.Errorf("log line = %+v", hits[0])
	}
}

func TestServerIgnoresNonClientMessages(t *testing.T) {
	s := NewServer("frontend-0", nil)
	if _, ok := s.HandleDHCP(Packet{Type: Offer, MAC: "aa"}); ok {
		t.Error("server must not respond to OFFER")
	}
}

func TestBusEndToEnd(t *testing.T) {
	log := syslogd.New()
	bus := NewBus()
	s := NewServer("frontend-0", log)
	bus.Register(s)

	// Unknown MAC: no reply, but a syslog trace.
	if _, ok := bus.Broadcast(Packet{Type: Discover, MAC: "aa:bb", Xid: 1}); ok {
		t.Fatal("offer for unregistered MAC")
	}
	if len(log.Grep("aa:bb")) != 1 {
		t.Fatal("discovery not logged")
	}

	// Bind (what insert-ethers does) and retry: now the node gets its lease.
	s.SetBinding("aa:bb", Binding{IP: "10.255.255.254", Hostname: "compute-0-0", NextServer: "10.1.1.1"})
	reply, ok := bus.Broadcast(Packet{Type: Discover, MAC: "aa:bb", Xid: 2})
	if !ok || reply.YourIP != "10.255.255.254" {
		t.Fatalf("retry after binding: %+v, %v", reply, ok)
	}
}

func TestBusFirstResponderWins(t *testing.T) {
	bus := NewBus()
	a := NewServer("a", nil)
	a.SetBinding("m", Binding{IP: "10.0.0.1"})
	b := NewServer("b", nil)
	b.SetBinding("m", Binding{IP: "10.0.0.2"})
	bus.Register(a)
	bus.Register(b)
	reply, ok := bus.Broadcast(Packet{Type: Discover, MAC: "m"})
	if !ok || reply.YourIP != "10.0.0.1" {
		t.Errorf("reply = %+v, want the first server's offer", reply)
	}
}

func TestRemoveBinding(t *testing.T) {
	s := NewServer("fe", nil)
	s.SetBinding("m", Binding{IP: "10.0.0.1"})
	s.RemoveBinding("m")
	if _, ok := s.HandleDHCP(Packet{Type: Discover, MAC: "m"}); ok {
		t.Error("removed binding still answered")
	}
	if len(s.Bindings()) != 0 {
		t.Error("Bindings not empty")
	}
}

func TestReconcileAppliesOnlyDifferences(t *testing.T) {
	s := NewServer("frontend-0", nil)
	kept := Binding{IP: "10.255.255.254", Hostname: "compute-0-0", NextServer: "http://10.1.1.1"}
	s.SetBinding("aa:01", kept)
	s.SetBinding("aa:02", Binding{IP: "10.255.255.253", Hostname: "compute-0-1"})
	s.SetBinding("aa:03", Binding{IP: "10.255.255.252", Hostname: "compute-0-2"})
	keptGen := s.bindings["aa:01"].gen

	moved := Binding{IP: "10.255.255.200", Hostname: "compute-0-1"}
	added := Binding{IP: "10.255.255.251", Hostname: "compute-0-3"}
	s.Reconcile(s.Generation(), []Host{{"aa:01", kept}, {"aa:02", moved}, {"aa:04", added}})

	want := map[string]Binding{"aa:01": kept, "aa:02": moved, "aa:04": added}
	got := s.Bindings()
	if len(got) != len(want) {
		t.Fatalf("table = %v, want %v", got, want)
	}
	for mac, b := range want {
		if got[mac] != b {
			t.Errorf("%s bound to %+v, want %+v", mac, got[mac], b)
		}
	}
	if g := s.bindings["aa:01"].gen; g != keptGen {
		t.Errorf("unchanged binding was rewritten (gen %d -> %d)", keptGen, g)
	}
	// A later duplicate wins, as it did when the table was rebuilt wholesale.
	s.Reconcile(s.Generation(), []Host{{"aa:01", kept}, {"aa:01", moved}})
	if got := s.Bindings(); len(got) != 1 || got["aa:01"] != moved {
		t.Errorf("duplicate MAC: table = %v, want aa:01 -> %+v only", got, moved)
	}
}

// TestReconcileKeepsBindingsNewerThanTheRead is the insert-ethers race: a
// report pass reads the nodes table, a discovery inserts a row and sets its
// binding, and the pass then reconciles against what it read. The binding
// the read could not have seen must survive; one that predates the read and
// is absent from it must not.
func TestReconcileKeepsBindingsNewerThanTheRead(t *testing.T) {
	s := NewServer("frontend-0", nil)
	s.SetBinding("aa:01", Binding{IP: "10.255.255.254", Hostname: "compute-0-0"})
	s.SetBinding("aa:02", Binding{IP: "10.255.255.253", Hostname: "gone-0-1"})

	since := s.Generation()
	read := []Host{{"aa:01", Binding{IP: "10.255.255.254", Hostname: "compute-0-0"}}} // the table as read
	fresh := Binding{IP: "10.255.255.252", Hostname: "compute-0-2"}
	s.SetBinding("aa:03", fresh) // discovered after the read
	s.Reconcile(since, read)

	got := s.Bindings()
	if got["aa:03"] != fresh {
		t.Errorf("binding set after the read was dropped: table = %v", got)
	}
	if _, ok := got["aa:02"]; ok {
		t.Errorf("stale binding survived: table = %v", got)
	}
	// The next pass has read the new row, and nothing changes.
	s.Reconcile(s.Generation(), append(read, Host{"aa:03", fresh}))
	if got := s.Bindings(); len(got) != 2 || got["aa:03"] != fresh {
		t.Errorf("after the following pass: table = %v", got)
	}
}
