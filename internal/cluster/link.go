// Package cluster simulates the paper's testbed of HPC clusters (Nwiceb,
// Catamount, Chinook): named sites with a master node and a worker width,
// connected by network links that can be shaped to a target bandwidth and
// latency. Shaped links reproduce the paper's "workstation ↔ HPC cluster"
// network path (Table IV) on loopback TCP.
package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/medici"
)

// LinkProfile describes a network link's characteristics.
type LinkProfile struct {
	// Bandwidth caps throughput in bytes/second. Zero means unlimited.
	Bandwidth float64
	// Latency is the one-way propagation delay every message pays, however
	// long its connection has been up. Zero means none.
	Latency time.Duration
}

// LoopbackProfile models the paper's "within a Linux workstation" path:
// unshaped loopback TCP.
func LoopbackProfile() LinkProfile { return LinkProfile{} }

// LabNetworkProfile approximates the paper's workstation-to-cluster path.
// Table IV's direct-TCP times correspond to ~115 MB/s (gigabit-class lab
// network with protocol overhead); latency is sub-millisecond.
func LabNetworkProfile() LinkProfile {
	return LinkProfile{Bandwidth: 115e6, Latency: 300 * time.Microsecond}
}

// ShapedTransport is a medici.Transport whose dialed and accepted
// connections are paced to the link profile.
type ShapedTransport struct {
	Profile LinkProfile
	inner   medici.Transport
}

// NewShapedTransport wraps inner (nil = plain TCP) with the profile.
func NewShapedTransport(p LinkProfile, inner medici.Transport) *ShapedTransport {
	if inner == nil {
		inner = medici.TCPTransport{}
	}
	return &ShapedTransport{Profile: p, inner: inner}
}

// Dial implements medici.Transport.
func (t *ShapedTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newShapedConn(c, t.Profile), nil
}

// DialContext implements medici.Transport: the dial is bounded by ctx and
// the resulting connection's pacing delays abort when ctx is canceled.
func (t *ShapedTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := t.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newShapedConn(c, t.Profile), nil
}

// Listen implements medici.Transport. Accepted connections are shaped on
// their write side, so both directions of a shaped link pay the cost.
func (t *ShapedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &shapedListener{Listener: ln, profile: t.Profile}, nil
}

type shapedListener struct {
	net.Listener
	profile LinkProfile
}

func (l *shapedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newShapedConn(c, l.profile), nil
}

// shapedConn paces writes: every write pays the latency plus its
// serialization delay at the configured bandwidth. A Write is a message —
// both medici protocols hand a whole framed message to one Write — so a
// persistent link charges each envelope the latency a connection per
// message used to, and k messages sent in turn take k latencies. Pacing
// is enforced on the sender side, which is where serialization delay
// occurs on a real link.
type shapedConn struct {
	net.Conn
	profile LinkProfile

	// done is closed by Close so pacing sleeps abort instead of holding a
	// canceled transfer for the full serialization delay.
	done      chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	nextFree time.Time
}

func newShapedConn(c net.Conn, p LinkProfile) net.Conn {
	if p.Bandwidth <= 0 && p.Latency <= 0 {
		return c
	}
	return &shapedConn{Conn: c, profile: p, done: make(chan struct{})}
}

func (c *shapedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	now := time.Now()
	if c.nextFree.Before(now) {
		c.nextFree = now
	}
	c.nextFree = c.nextFree.Add(c.profile.Latency)
	if c.profile.Bandwidth > 0 {
		serialization := time.Duration(float64(len(b)) / c.profile.Bandwidth * float64(time.Second))
		c.nextFree = c.nextFree.Add(serialization)
	}
	wait := time.Until(c.nextFree)
	c.mu.Unlock()
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-c.done:
			t.Stop()
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(b)
}

// Close aborts any in-flight pacing delay and closes the underlying
// connection.
func (c *shapedConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// String describes the profile.
func (p LinkProfile) String() string {
	if p.Bandwidth <= 0 && p.Latency <= 0 {
		return "unshaped"
	}
	return fmt.Sprintf("%.0f MB/s, %s", p.Bandwidth/1e6, p.Latency)
}
