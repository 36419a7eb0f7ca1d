// Package syslogd is the cluster's log collector. Its one load-bearing role
// in Rocks is discovery: the DHCP server logs DHCPDISCOVER messages from
// unknown MACs, and insert-ethers "monitors syslog messages for DHCP
// requests from new hosts" (§6.4). The collector therefore supports both
// retrospective reads and live subscription.
package syslogd

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rocks/internal/lifecycle"
)

// Backlog is how many messages a collector keeps for retrospective reads: a
// frontend logs about five lines per install for as long as it runs, and what
// is read back is the recent past.
const Backlog = 4096

// Message is one syslog entry.
type Message struct {
	Seq  int64  // monotonically increasing sequence number
	Host string // originating host
	Tag  string // program tag, e.g. "dhcpd"
	Text string
}

// String renders the message in classic syslog style.
func (m Message) String() string {
	return fmt.Sprintf("%s %s: %s", m.Host, m.Tag, m.Text)
}

// Collector receives messages and fans them out to subscribers. It is safe
// for concurrent use.
type Collector struct {
	mu   sync.Mutex
	msgs lifecycle.Ring[Message] // the newest Backlog messages, under mu
	subs map[int]chan Message
	next int
	seq  int64
}

// New creates an empty collector.
func New() *Collector {
	return &Collector{msgs: lifecycle.NewRing[Message](Backlog), subs: make(map[int]chan Message)}
}

// Log records a message and delivers it to all subscribers. Slow
// subscribers lose messages rather than blocking the logger (syslog is
// lossy; insert-ethers re-reads the backlog on startup instead).
func (c *Collector) Log(host, tag, format string, args ...interface{}) {
	c.mu.Lock()
	c.seq++
	m := Message{Seq: c.seq, Host: host, Tag: tag, Text: fmt.Sprintf(format, args...)}
	c.msgs.Push(m)
	for _, ch := range c.subs {
		select {
		case ch <- m:
		default:
		}
	}
	c.mu.Unlock()
}

// Subscribe returns a channel of future messages and a cancel function.
// The channel is buffered; messages overflowing the buffer are dropped for
// that subscriber.
func (c *Collector) Subscribe() (<-chan Message, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	ch := make(chan Message, 256)
	c.subs[id] = ch
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(ch)
		}
	}
}

// Messages returns a copy of the backlog, oldest first.
func (c *Collector) Messages() []Message { return c.Grep("") }

// Grep returns the backlog's messages whose text contains substr, oldest
// first.
func (c *Collector) Grep(substr string) []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs.Select(0, func(m *Message) bool { return strings.Contains(m.Text, substr) })
}

// Evicted counts messages the backlog has let go to make room for newer ones.
func (c *Collector) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs.Evicted()
}

// WaitFor polls until a logged message satisfies pred or the timeout
// elapses; it returns the first matching message. It checks the backlog
// first, so a message logged before the call still matches.
func (c *Collector) WaitFor(pred func(Message) bool, timeout time.Duration) (Message, bool) {
	deadline := time.Now().Add(timeout)
	ch, cancel := c.Subscribe()
	defer cancel()
	for _, m := range c.Messages() {
		if pred(m) {
			return m, true
		}
	}
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return Message{}, false
		}
		select {
		case m, ok := <-ch:
			if !ok {
				return Message{}, false
			}
			if pred(m) {
				return m, true
			}
		case <-time.After(remain):
			return Message{}, false
		}
	}
}
