package medici

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// The request/reply path implements the paper's data-retrieval flow: "a
// middleware client sends the request for data to the destination URL. The
// middleware resolves the location by the URL, routes the requests and
// fetches remote measurement data into a local data buffer." A DataServer
// exposes a fetch handler at an endpoint and answers every request frame
// on a connection with one reply frame (length-prefix framed), until the
// caller hangs up. MWClient.Fetch keeps one such connection per server.

// Handler produces the reply for one data request. Returning an error
// sends an error frame to the caller.
type Handler func(request []byte) ([]byte, error)

// DataServer serves fetch requests at a TCP endpoint.
type DataServer struct {
	acc     *acceptor
	handler Handler

	closeOnce sync.Once
	closeErr  error
}

// NewDataServer binds addr and serves requests with handler.
func NewDataServer(tr Transport, addr string, handler Handler) (*DataServer, error) {
	if tr == nil {
		tr = TCPTransport{}
	}
	if handler == nil {
		return nil, errors.New("medici: nil fetch handler")
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("medici: data server listen %s: %w", addr, err)
	}
	s := &DataServer{acc: newAcceptor(ln), handler: handler}
	s.acc.serve(s.answer)
	return s, nil
}

// URL returns the server's endpoint URL.
func (s *DataServer) URL() string { return "tcp://" + s.acc.ln.Addr().String() }

// answer serves one connection's requests in order.
func (s *DataServer) answer(conn net.Conn) {
	var frame LengthPrefixProtocol
	for {
		req, err := frame.ReadMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.acc.isClosed() {
				log.Printf("medici: data server: reading request: %v", err)
			}
			return
		}
		reply, err := s.handler(req)
		var out []byte // status byte, then the reply or the error text
		if err != nil {
			out = append([]byte{1}, err.Error()...)
		} else {
			out = append([]byte{0}, reply...)
		}
		if err := frame.WriteMessage(conn, out); err != nil {
			log.Printf("medici: data server: writing reply: %v", err)
			return
		}
	}
}

// Close stops the server, hanging up on its callers; a request still in
// its handler loses its reply.
func (s *DataServer) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.acc.close() })
	return s.closeErr
}

// ErrRemote wraps an error reported by the remote fetch handler.
var ErrRemote = errors.New("medici: remote fetch error")

// DefaultFetchTimeout bounds a Fetch exchange when the caller's context
// carries no deadline of its own.
const DefaultFetchTimeout = 30 * time.Second

// Fetch sends a request to the data server at url and returns its reply —
// MW_Client_Recv's pull counterpart — over the client's persistent link to
// that server: successive requests share one connection, and concurrent
// ones take turns on it. The context bounds the whole exchange (dial, send
// and receive); when it carries no deadline, DefaultFetchTimeout applies.
// Cancellation surfaces as ctx.Err(). An error from the remote handler
// comes back wrapped in ErrRemote and leaves the link up: the stream is
// still in step.
func (c *MWClient) Fetch(ctx context.Context, url string, request []byte) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultFetchTimeout)
		defer cancel()
	}
	var reply []byte
	err := c.onLink(ctx, url, func(conn net.Conn) (err error) {
		reply, err = roundTrip(conn, request)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Status byte prefix: 0 = ok, 1 = handler error (message follows).
	if reply[0] != 0 {
		return nil, fmt.Errorf("%w: %s", ErrRemote, reply[1:])
	}
	return reply[1:], nil
}

// roundTrip is one fetch exchange on an established connection: write the
// request frame, read the reply frame, status byte included.
func roundTrip(conn net.Conn, request []byte) ([]byte, error) {
	var frame LengthPrefixProtocol
	if err := frame.WriteMessage(conn, request); err != nil {
		return nil, fmt.Errorf("medici: fetch send: %w", err)
	}
	reply, err := frame.ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("medici: fetch receive: %w", err)
	}
	if len(reply) == 0 {
		return nil, errors.New("medici: fetch: empty reply frame")
	}
	return reply, nil
}
