// Package memnet is an in-process network, so HTTP between two parts of one
// process crosses no kernel socket: listeners by address, and conn pairs
// that give net/http what loopback TCP gives it. Each direction buffers up
// to bufSize bytes, so a writer runs ahead of its reader (net.Pipe hands
// over every write); deadlines wake blocked calls, which net/http uses to
// abort its background read; and Close on either end unblocks both.
package memnet

import (
	"context"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Addr is an address on the network, spelled "host:port" as a TCP address
// is, so a URL built from it keeps its shape.
type Addr string

func (Addr) Network() string  { return "memnet" }
func (a Addr) String() string { return string(a) }

// client is every dialing end's address: the private network's own name.
const client Addr = "memnet:0"

// Network is one private network; make it with New.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	port      int // the last port Listen assigned for ":0"
}

func New() *Network { return &Network{listeners: make(map[string]*Listener)} }

// Listen registers a listener at addr. Port 0 assigns one no listener on
// the network holds.
func (n *Network) Listen(addr string) (*Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; port == "0" && i < 65535; i++ {
		n.port = n.port%65535 + 1
		if addr = net.JoinHostPort(host, strconv.Itoa(n.port)); n.listeners[addr] == nil {
			break
		}
	}
	if n.listeners[addr] != nil {
		return nil, &net.OpError{Op: "listen", Net: "memnet", Addr: Addr(addr), Err: syscall.EADDRINUSE}
	}
	// The accept queue is a listen backlog: a dial beyond it waits.
	l := &Listener{net: n, addr: Addr(addr), queue: make(chan *conn, 128), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// DialContext connects to the listener at addr, and refuses an address no
// listener holds. It ignores network, so it can stand in for a
// net.Dialer's.
func (n *Network) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: "memnet", Addr: Addr(addr), Err: syscall.ECONNREFUSED}
	if l == nil {
		return nil, refused
	}
	p := &pipe{}
	p.cond.L = &p.mu
	srv := &conn{p: p, in: &p.dirs[0], out: &p.dirs[1], local: l.addr, remote: client}
	cli := &conn{p: p, in: &p.dirs[1], out: &p.dirs[0], local: client, remote: l.addr}
	select {
	case l.queue <- srv:
	case <-l.done:
		return nil, refused
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-l.done:
		// Close raced the send and may have drained the queue before it.
		l.Close()
		cli.Close()
		return nil, refused
	default:
		return cli, nil
	}
}

// Listener is a net.Listener on a Network.
type Listener struct {
	net   *Network
	addr  Addr
	queue chan *conn
	done  chan struct{}
	once  sync.Once
}

func (l *Listener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
	case c := <-l.queue:
		return c, nil
	}
	return nil, &net.OpError{Op: "accept", Net: "memnet", Addr: l.addr, Err: net.ErrClosed}
}

// Close frees the address, refuses later dials and closes every conn still
// waiting to be accepted.
func (l *Listener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, string(l.addr))
		l.net.mu.Unlock()
		close(l.done)
	})
	for {
		select {
		case c := <-l.queue:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *Listener) Addr() net.Addr { return l.addr }

// bufSize bounds one direction of a conn; it holds a whole manifest or
// bundle response, so a server seldom waits on its reader.
const bufSize = 64 << 10

// chunks recycles buffers: a direction holds one only while it has unread
// bytes, so an idle conn holds none.
var chunks = sync.Pool{New: func() any { return new([bufSize]byte) }}

// pipe is a conn pair's shared state. Every change to it broadcasts cond.
type pipe struct {
	mu   sync.Mutex
	cond sync.Cond
	dirs [2]direction
}

// direction is one way through a pipe; its unread bytes are buf[r:w].
type direction struct {
	buf  *[bufSize]byte
	r, w int
	eof  bool // the writing end closed: the reader drains buf, then io.EOF
	gone bool // the reading end closed: writes fail
}

func (d *direction) release() {
	chunks.Put(d.buf)
	d.buf, d.r, d.w = nil, 0, 0
}

// conn is one end of a pipe: it reads in and writes out.
type conn struct {
	p             *pipe
	in, out       *direction
	local, remote Addr
	closed        bool
	rd, wd        deadline
}

// deadline is a Read's or a Write's; its timer wakes the waiters when it
// passes.
type deadline struct {
	at    time.Time
	timer *time.Timer
}

func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}

// failed (mu held) is the error that ends an operation before it starts.
func (c *conn) failed(d *deadline) error {
	switch {
	case c.closed:
		return net.ErrClosed
	case !d.at.IsZero() && !time.Now().Before(d.at):
		return os.ErrDeadlineExceeded
	}
	return nil
}

func (c *conn) Read(b []byte) (int, error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	for {
		if err := c.failed(&c.rd); err != nil || len(b) == 0 {
			return 0, err
		}
		if in := c.in; in.buf != nil {
			n := copy(b, in.buf[in.r:in.w])
			if in.r += n; in.r == in.w {
				in.release()
			}
			c.p.cond.Broadcast()
			return n, nil
		}
		if c.in.eof {
			return 0, io.EOF
		}
		c.p.cond.Wait()
	}
}

func (c *conn) Write(b []byte) (int, error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	n := 0
	for {
		if err := c.failed(&c.wd); err != nil || n == len(b) {
			return n, err
		}
		out := c.out
		if out.gone {
			return n, io.ErrClosedPipe
		}
		if out.buf == nil {
			out.buf = chunks.Get().(*[bufSize]byte)
		}
		if m := copy(out.buf[out.w:], b[n:]); m > 0 {
			out.w += m
			n += m
			c.p.cond.Broadcast()
			continue
		}
		c.p.cond.Wait()
	}
}

// Close ends both directions: the peer reads what was written, then EOF,
// and its writes fail. Blocked calls on both ends return.
func (c *conn) Close() error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.in.gone, c.out.eof = true, true
		if c.in.buf != nil {
			c.in.release()
		}
		c.rd.stop()
		c.wd.stop()
		c.p.cond.Broadcast()
	}
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error      { return c.setDeadline(t, &c.rd, &c.wd) }
func (c *conn) SetReadDeadline(t time.Time) error  { return c.setDeadline(t, &c.rd) }
func (c *conn) SetWriteDeadline(t time.Time) error { return c.setDeadline(t, &c.wd) }

// setDeadline moves ds to t and wakes the waiters to look again. A closed
// conn arms no timer.
func (c *conn) setDeadline(t time.Time, ds ...*deadline) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	for _, d := range ds {
		d.stop()
		d.at = t
		if wait := time.Until(t); !t.IsZero() && wait > 0 {
			d.timer = time.AfterFunc(wait, func() {
				c.p.mu.Lock()
				c.p.cond.Broadcast()
				c.p.mu.Unlock()
			})
		}
	}
	c.p.cond.Broadcast()
	return nil
}
