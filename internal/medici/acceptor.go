package medici

import (
	"net"
	"sync"
)

// acceptor runs a listener's accept loop, serves each accepted connection
// on its own goroutine and remembers the open ones. Inbound links are
// persistent — a handler sits in Read until its peer hangs up — so close
// must close them itself before it waits: otherwise two endpoints closing
// in turn each wait on a handler reading the other's still-open link.
type acceptor struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newAcceptor(ln net.Listener) *acceptor {
	return &acceptor{ln: ln, conns: make(map[net.Conn]struct{})}
}

// serve starts the accept loop; handle returns when it is done with its
// connection, which the acceptor then closes.
func (a *acceptor) serve(handle func(net.Conn)) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			conn, err := a.ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !a.track(conn) {
				conn.Close()
				return
			}
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				handle(conn)
				a.mu.Lock()
				delete(a.conns, conn)
				a.mu.Unlock()
				conn.Close()
			}()
		}
	}()
}

func (a *acceptor) track(conn net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.conns[conn] = struct{}{}
	return true
}

// isClosed reports whether close has begun, which is when a handler's read
// error is the shutdown itself and not worth a log line.
func (a *acceptor) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// close stops accepting, closes every open connection and waits for the
// handlers to return.
func (a *acceptor) close() error {
	err := a.ln.Close()
	a.mu.Lock()
	a.closed = true
	for conn := range a.conns {
		conn.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return err
}
