package medici

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
)

// MWClient is the interface-layer middleware client deployed on each HPC
// cluster's master node (the paper's MW_Client_Send / MW_Client_Recv).
// Sends resolve the destination through the registry and go through the
// configured pipeline inbound endpoint; receives drain the local data
// buffer fed by the client's own listening endpoint.
//
// The client owns its outbound links: under a protocol that delimits
// messages in-stream (Protocol.Streams) it keeps one connection per
// destination URL from the first send until Close, and so does Fetch per
// data server. Under a close-delimited protocol every send is its own
// connection.
type MWClient struct {
	name      string
	transport Transport
	frame     Protocol
	registry  *Registry
	recv      *Receiver

	mu     sync.Mutex
	links  map[string]*link // by destination URL
	closed bool
}

// link is one persistent outbound connection. mu serializes whole frames
// (and request/reply pairs) on it, so concurrent senders never interleave.
// conn is guarded by the client's mu, not the link's, so HangUp and Close
// can close it under an exchange in flight instead of queueing behind it.
// It is nil until the first use and again after any failed or canceled
// exchange: no frame ever follows a half-written one.
type link struct {
	mu   sync.Mutex
	conn net.Conn
}

var errClientClosed = errors.New("medici: client closed")

// NewMWClient creates a client named name, listening on listenAddr
// (host:port, ":0" for ephemeral), using the registry for destination
// resolution. bufDepth sizes the local data buffer.
func NewMWClient(name, listenAddr string, reg *Registry, tr Transport, frame Protocol, bufDepth int) (*MWClient, error) {
	if tr == nil {
		tr = TCPTransport{}
	}
	if frame == nil {
		frame = NewEOFProtocol()
	}
	rcv, err := NewReceiver(tr, listenAddr, frame, bufDepth)
	if err != nil {
		return nil, err
	}
	c := &MWClient{name: name, transport: tr, frame: frame, registry: reg, recv: rcv, links: make(map[string]*link)}
	if err := reg.Register(name, c.URL()); err != nil {
		rcv.Close()
		return nil, err
	}
	return c, nil
}

// URL returns this client's own inbound endpoint URL.
func (c *MWClient) URL() string { return c.recv.URL() }

// Name returns the client's registered name.
func (c *MWClient) Name() string { return c.name }

// Send transmits data to the named destination: it resolves the
// destination URL (normally a MeDICi pipeline inbound endpoint that relays
// to the destination estimator) and writes one framed message to it. The
// context bounds the dial, if one is needed, and the write.
func (c *MWClient) Send(ctx context.Context, dst string, data []byte) error {
	url, err := c.registry.Resolve(dst)
	if err != nil {
		return err
	}
	return c.SendURL(ctx, url, data)
}

// SendURL transmits one framed message straight to a tcp:// URL, on the
// client's link to that URL when the protocol streams and on a connection
// of its own otherwise. The context bounds the dial and the write;
// cancellation mid-write surfaces as ctx.Err().
func (c *MWClient) SendURL(ctx context.Context, url string, data []byte) error {
	if !c.frame.Streams() {
		return sendOnce(ctx, c.transport, url, c.frame, data)
	}
	return c.onLink(ctx, url, func(conn net.Conn) error { return c.frame.WriteMessage(conn, data) })
}

// sendOnce dials url, writes one framed message and hangs up.
func sendOnce(ctx context.Context, tr Transport, url string, frame Protocol, data []byte) error {
	conn, err := dialURL(ctx, tr, url)
	if err != nil {
		return err
	}
	werr := exchange(ctx, conn, func(conn net.Conn) error { return frame.WriteMessage(conn, data) })
	cerr := conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// dialURL connects to a tcp:// URL under ctx.
func dialURL(ctx context.Context, tr Transport, url string) (net.Conn, error) {
	ep, err := ParseEndpoint(url)
	if err != nil {
		return nil, err
	}
	conn, err := tr.DialContext(ctx, ep.Addr())
	if err != nil {
		return nil, fmt.Errorf("medici: dial %s: %w", ep.Addr(), ctxIOErr(ctx, err))
	}
	return conn, nil
}

// exchange runs fn's I/O on conn under ctx: the connection deadline is set
// to ctx's (cleared when ctx has none, so an earlier exchange's deadline
// never outlives it) and cancellation aborts fn mid-I/O. Any error, and a
// cancellation even when fn got through, means conn must not carry
// another frame; errors induced by ctx come back as ctx.Err().
func exchange(ctx context.Context, conn net.Conn, fn func(net.Conn) error) error {
	deadline, _ := ctx.Deadline()
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	stop := cancelOnDone(ctx, conn)
	err := fn(conn)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	return ctxIOErr(ctx, err)
}

// onLink runs one exchange on the client's persistent link to url, dialing
// it first when it is not up. A failed exchange drops the link; the next
// one redials.
func (c *MWClient) onLink(ctx context.Context, url string, fn func(net.Conn) error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClientClosed
	}
	l := c.links[url]
	if l == nil {
		l = new(link)
		c.links[url] = l
	}
	c.mu.Unlock()

	l.mu.Lock()
	defer l.mu.Unlock()
	conn, err := c.connect(ctx, l, url)
	if err != nil {
		return err
	}
	if err := exchange(ctx, conn, fn); err != nil {
		c.mu.Lock()
		if l.conn == conn {
			l.conn = nil
		}
		c.mu.Unlock()
		conn.Close()
		return err
	}
	return nil
}

// connect returns l's connection, dialing url when the link is down. The
// caller holds l.mu, so nobody else dials l meanwhile.
func (c *MWClient) connect(ctx context.Context, l *link, url string) (net.Conn, error) {
	c.mu.Lock()
	conn := l.conn
	c.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := dialURL(ctx, c.transport, url)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Close swept the links while we dialed; this one would outlive it.
		conn.Close()
		return nil, errClientClosed
	}
	l.conn = conn
	return conn, nil
}

// Recv blocks until one message arrives in the local data buffer. It
// returns an error when the client is closed or ctx is canceled.
func (c *MWClient) Recv(ctx context.Context) ([]byte, error) { return c.recv.Recv(ctx) }

// Messages exposes the local data buffer channel.
func (c *MWClient) Messages() <-chan []byte { return c.recv.Messages() }

// HangUp closes the client's outbound links and leaves the client open:
// the next send or fetch redials. It does not wait for an exchange in
// flight on a link; that exchange fails on the closed connection.
//
// Endpoints that will both close should all hang up before any closes its
// listener. A TCP connection lingers in TIME_WAIT on the side that closed
// first: on the dialing side that holds an ephemeral port nobody asked for
// by number, on the accepting side the listener's own port — and a process
// that keeps opening listeners on port 0 while tens of thousands of those
// linger finds Listen slowing from microseconds to milliseconds.
func (c *MWClient) HangUp() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hangUpLocked()
}

func (c *MWClient) hangUpLocked() {
	for _, l := range c.links {
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
}

// Close hangs up the client's outbound links for good, then stops its
// receiver, which hangs up on whoever still holds a link into it. A send
// stalled on a peer that is not reading fails; Close does not wait for it.
func (c *MWClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.hangUpLocked()
	c.mu.Unlock()
	return c.recv.Close()
}

// Receiver listens on an endpoint and buffers every framed message it
// accepts into a channel — the "local data buffer" of the paper's interface
// layer. An inbound connection is read until its peer closes it, so one
// connection delivers as many messages as the protocol lets it carry.
type Receiver struct {
	acc   *acceptor
	frame Protocol
	ch    chan []byte
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// NewReceiver binds addr and starts accepting.
func NewReceiver(tr Transport, addr string, frame Protocol, depth int) (*Receiver, error) {
	if tr == nil {
		tr = TCPTransport{}
	}
	if frame == nil {
		frame = NewEOFProtocol()
	}
	if depth <= 0 {
		depth = 64
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("medici: listen %s: %w", addr, err)
	}
	r := &Receiver{acc: newAcceptor(ln), frame: frame, ch: make(chan []byte, depth), done: make(chan struct{})}
	r.acc.serve(r.drain)
	return r, nil
}

// drain buffers every message arriving on one inbound connection.
func (r *Receiver) drain(conn net.Conn) {
	for {
		msg, err := r.frame.ReadMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !r.acc.isClosed() {
				log.Printf("medici: receiver %s: %v", r.Addr(), err)
			}
			return
		}
		select {
		case r.ch <- msg:
		case <-r.done:
			return
		}
	}
}

// Recv blocks for the next message. It unblocks with ctx.Err() when the
// context is canceled, or with a closure error when the receiver closes
// (after draining anything already buffered).
func (r *Receiver) Recv(ctx context.Context) ([]byte, error) {
	select {
	case msg := <-r.ch:
		return msg, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.done:
		// Drain anything already buffered before reporting closure.
		select {
		case msg := <-r.ch:
			return msg, nil
		default:
			return nil, errors.New("medici: receiver closed")
		}
	}
}

// Messages returns the buffered message channel.
func (r *Receiver) Messages() <-chan []byte { return r.ch }

// URL returns the receiver's bound endpoint URL.
func (r *Receiver) URL() string { return "tcp://" + r.Addr() }

// Addr returns the bound host:port.
func (r *Receiver) Addr() string { return r.acc.ln.Addr().String() }

// Close shuts the listener and every inbound connection and waits for
// their handlers. Messages already buffered stay receivable.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.closeErr = r.acc.close()
	})
	return r.closeErr
}
