// Package dhcp implements the slice of DHCP that Rocks management depends
// on (§5: "For configuring Ethernet devices on compute nodes, the Dynamic
// Host Configuration Protocol is essential"): DISCOVER/OFFER over a
// broadcast segment, a server driven by a MAC→address binding table, and
// syslog emission for unknown MACs — the hook insert-ethers listens on
// (§6.4).
//
// Packets use a compact binary wire format so the code path exercises real
// marshalling, but the transport is an in-process broadcast Bus standing in
// for the private Ethernet segment.
package dhcp

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rocks/internal/syslogd"
)

// MessageType is the DHCP message op.
type MessageType byte

// The message types the Rocks flow uses.
const (
	Discover MessageType = 1
	Offer    MessageType = 2
	Request  MessageType = 3
	Ack      MessageType = 4
)

// String names the message type in syslog's vocabulary.
func (t MessageType) String() string {
	switch t {
	case Discover:
		return "DHCPDISCOVER"
	case Offer:
		return "DHCPOFFER"
	case Request:
		return "DHCPREQUEST"
	case Ack:
		return "DHCPACK"
	}
	return fmt.Sprintf("DHCP(%d)", byte(t))
}

// Packet is a simplified DHCP message.
type Packet struct {
	Type       MessageType
	Xid        uint32 // transaction id
	MAC        string // client hardware address
	YourIP     string // assigned address (OFFER/ACK)
	Hostname   string // option 12
	NextServer string // siaddr: where to kickstart from
}

const wireMagic = 0x52434b53 // "RCKS"

// Marshal encodes the packet.
func (p Packet) Marshal() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, wireMagic)
	b = append(b, byte(p.Type))
	b = binary.BigEndian.AppendUint32(b, p.Xid)
	for _, s := range []string{p.MAC, p.YourIP, p.Hostname, p.NextServer} {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return b
}

// Unmarshal decodes a packet from wire bytes.
func Unmarshal(b []byte) (Packet, error) {
	var p Packet
	if len(b) < 9 || binary.BigEndian.Uint32(b[:4]) != wireMagic {
		return p, fmt.Errorf("dhcp: bad packet header")
	}
	p.Type = MessageType(b[4])
	p.Xid = binary.BigEndian.Uint32(b[5:9])
	rest := b[9:]
	fields := []*string{&p.MAC, &p.YourIP, &p.Hostname, &p.NextServer}
	for _, f := range fields {
		if len(rest) < 2 {
			return p, fmt.Errorf("dhcp: truncated packet")
		}
		n := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < n {
			return p, fmt.Errorf("dhcp: truncated field")
		}
		*f = string(rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return p, fmt.Errorf("dhcp: %d trailing bytes", len(rest))
	}
	return p, nil
}

// Responder handles a broadcast packet, optionally replying.
type Responder interface {
	HandleDHCP(Packet) (Packet, bool)
}

// Bus is the private Ethernet broadcast segment: clients broadcast, every
// registered responder sees the packet, and the first affirmative reply is
// returned to the sender. Packets cross the bus in wire format, so both
// marshalling paths are exercised on every exchange.
type Bus struct {
	mu         sync.RWMutex
	responders []Responder
}

// NewBus creates an empty segment.
func NewBus() *Bus { return &Bus{} }

// Register attaches a responder (a DHCP server) to the segment.
func (b *Bus) Register(r Responder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.responders = append(b.responders, r)
}

// Broadcast sends a packet to every responder and returns the first reply.
func (b *Bus) Broadcast(p Packet) (Packet, bool) {
	wire := p.Marshal()
	b.mu.RLock()
	responders := append([]Responder(nil), b.responders...)
	b.mu.RUnlock()
	for _, r := range responders {
		decoded, err := Unmarshal(wire)
		if err != nil {
			return Packet{}, false
		}
		if reply, ok := r.HandleDHCP(decoded); ok {
			// Replies also cross the wire.
			back, err := Unmarshal(reply.Marshal())
			if err != nil {
				return Packet{}, false
			}
			return back, true
		}
	}
	return Packet{}, false
}

// Binding is one static host entry in the server's configuration — the
// product of a dbreport over the nodes table.
type Binding struct {
	IP         string
	Hostname   string
	NextServer string
}

// Host is one static host entry: a MAC and what it is bound to.
type Host struct {
	MAC string
	Binding
}

// entry is a stored binding with the bookkeeping Reconcile needs: the
// server generation at which it was set, and the last reconcile pass that
// wanted it. A changed binding is a new entry; only pass is ever rewritten.
type entry struct {
	Binding
	gen, pass uint64
}

// Server answers DISCOVER/REQUEST for known MACs and logs unknown MACs to
// syslog, which is the signal insert-ethers discovers new nodes by.
type Server struct {
	mu       sync.RWMutex
	host     string // server's own hostname, used as the syslog origin
	bindings map[string]*entry
	gen      uint64 // bumps on every binding set
	passes   uint64 // reconcile passes run
	log      *syslogd.Collector
}

// NewServer creates a DHCP server logging to the given collector.
func NewServer(host string, log *syslogd.Collector) *Server {
	return &Server{host: host, bindings: make(map[string]*entry), log: log}
}

// SetBinding installs or replaces the static entry for a MAC.
func (s *Server) SetBinding(mac string, b Binding) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(mac, b)
}

func (s *Server) setLocked(mac string, b Binding) *entry {
	s.gen++
	e := &entry{Binding: b, gen: s.gen}
	s.bindings[mac] = e
	return e
}

// RemoveBinding deletes a MAC's entry.
func (s *Server) RemoveBinding(mac string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.bindings, mac)
}

// Bindings returns a copy of the current table.
func (s *Server) Bindings() map[string]Binding {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Binding, len(s.bindings))
	for k, e := range s.bindings {
		out[k] = e.Binding
	}
	return out
}

// Generation returns a stamp that orders binding changes: every binding set
// after the call carries a later one. Take it before reading the source of
// truth that a Reconcile will be fed from.
func (s *Server) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Reconcile makes the table hold exactly want — the equivalent of writing
// dhcpd.conf from a dbreport and restarting dhcpd — by applying only the
// differences: entries that already match are left alone, and an entry
// absent from want is removed only if it was set no later than since. want
// was read at some moment after since was taken, so a binding newer than
// since belongs to a row that read may have missed (insert-ethers binds a
// node right after inserting it), and removing it would leave a discovered
// machine without its OFFER. A later want has a duplicate MAC win, as the
// wholesale rebuild did.
func (s *Server) Reconcile(since uint64, want []Host) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passes++
	wanted := 0
	for _, h := range want {
		e, ok := s.bindings[h.MAC]
		if !ok || e.Binding != h.Binding {
			e = s.setLocked(h.MAC, h.Binding)
		}
		if e.pass != s.passes {
			e.pass = s.passes
			wanted++
		}
	}
	if wanted == len(s.bindings) {
		return
	}
	for mac, e := range s.bindings {
		if e.pass != s.passes && e.gen <= since {
			delete(s.bindings, mac)
		}
	}
}

// HandleDHCP implements Responder: DISCOVER→OFFER and REQUEST→ACK for known
// MACs; unknown MACs are logged and left unanswered, exactly the behavior
// insert-ethers depends on.
func (s *Server) HandleDHCP(p Packet) (Packet, bool) {
	if p.Type != Discover && p.Type != Request {
		return Packet{}, false
	}
	s.mu.RLock()
	e, ok := s.bindings[p.MAC]
	s.mu.RUnlock()
	if !ok {
		if s.log != nil {
			s.log.Log(s.host, "dhcpd", "%s from %s via eth0: network 10.0.0.0/8: no free leases",
				p.Type, p.MAC)
		}
		return Packet{}, false
	}
	b := e.Binding // written once, before the entry was stored
	reply := Packet{
		Xid:        p.Xid,
		MAC:        p.MAC,
		YourIP:     b.IP,
		Hostname:   b.Hostname,
		NextServer: b.NextServer,
	}
	if p.Type == Discover {
		reply.Type = Offer
	} else {
		reply.Type = Ack
	}
	if s.log != nil {
		s.log.Log(s.host, "dhcpd", "%s on %s to %s (%s) via eth0",
			reply.Type, b.IP, p.MAC, b.Hostname)
	}
	return reply, true
}
