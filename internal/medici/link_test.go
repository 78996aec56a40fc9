package medici

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport is plain TCP that counts its dials and how many of the
// dialed connections are not yet closed.
type countingTransport struct {
	TCPTransport
	dials, open atomic.Int64
}

type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

func (t *countingTransport) Dial(addr string) (net.Conn, error) {
	return t.DialContext(context.Background(), addr)
}

func (t *countingTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	t.dials.Add(1)
	conn, err := t.TCPTransport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	t.open.Add(1)
	return &countedConn{Conn: conn, open: &t.open}, nil
}

func clientPair(t *testing.T, tr Transport, frame Protocol, depth int) (src, dst *MWClient) {
	t.Helper()
	reg := NewRegistry()
	dst, err := NewMWClient("dst", "127.0.0.1:0", reg, tr, frame, depth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	src, err = NewMWClient("src", "127.0.0.1:0", reg, tr, frame, depth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src, dst
}

// TestLinkLifetimeFollowsProtocol: a protocol that delimits in-stream keeps
// one connection per destination for all its messages, in order; the
// close-delimited one dials once per message. No knob decides it.
func TestLinkLifetimeFollowsProtocol(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		frame Protocol
		dials int64
	}{
		{LengthPrefixProtocol{}, 1},
		{NewEOFProtocol(), k},
	} {
		t.Run(tc.frame.Name(), func(t *testing.T) {
			tr := &countingTransport{}
			src, dst := clientPair(t, tr, tc.frame, 16)
			for i := 0; i < k; i++ {
				if err := src.Send(context.Background(), "dst", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				msg, err := dst.Recv(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(msg) != 1 || msg[0] != byte(i) {
					t.Fatalf("message %d arrived as %v", i, msg)
				}
			}
			if got := tr.dials.Load(); got != tc.dials {
				t.Errorf("%d sends dialed %d times, want %d", k, got, tc.dials)
			}
		})
	}
}

// TestLinkDeadlineDoesNotOutliveItsSend: one send's context deadline must
// not stay on the link — a later send without a deadline, made after the
// first one's has passed, still goes through.
func TestLinkDeadlineDoesNotOutliveItsSend(t *testing.T) {
	tr := &countingTransport{}
	src, dst := clientPair(t, tr, LengthPrefixProtocol{}, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if err := src.Send(ctx, "dst", []byte("first")); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	cancel()
	time.Sleep(5 * time.Millisecond)
	if err := src.Send(context.Background(), "dst", []byte("second")); err != nil {
		t.Fatalf("send after an earlier send's deadline passed: %v", err)
	}
	for _, want := range []string{"first", "second"} {
		msg, err := dst.Recv(context.Background())
		if err != nil || string(msg) != want {
			t.Fatalf("got %q, %v; want %q", msg, err, want)
		}
	}
	if got := tr.dials.Load(); got != 1 {
		t.Errorf("dialed %d times, want the one link reused", got)
	}
}

// TestCanceledWriteDropsLink: a send canceled while its frame is half on
// the wire returns ctx.Err(), leaves no goroutine, and the link is gone —
// the next send arrives whole on a connection of its own instead of
// following the torn frame.
func TestCanceledWriteDropsLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn // the first one is never read
		}
	}()

	tr := &countingTransport{}
	src, err := NewMWClient("src", "127.0.0.1:0", NewRegistry(), tr, LengthPrefixProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	url := "tcp://" + ln.Addr().String()
	base := runtime.NumGoroutine()

	// Far more than loopback socket buffers hold: the write must block.
	huge := make([]byte, 32<<20)
	ctx, cancel := context.WithCancel(context.Background())
	torn := make(chan net.Conn)
	var canceledAt time.Time
	go func() {
		conn := <-accepted // the link is up: the frame is on its way
		time.Sleep(50 * time.Millisecond)
		canceledAt = time.Now()
		cancel()
		torn <- conn
	}()
	if err := src.SendURL(ctx, url, huge); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	returned := time.Now()
	defer (<-torn).Close()
	if d := returned.Sub(canceledAt); d > time.Second {
		t.Fatalf("send returned %v after its cancellation", d)
	}

	if err := src.SendURL(context.Background(), url, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if got := tr.dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want a fresh link after the torn frame", got)
	}
	fresh := <-accepted
	defer fresh.Close()
	fresh.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := LengthPrefixProtocol{}.ReadMessage(fresh)
	if err != nil || string(msg) != "whole" {
		t.Fatalf("fresh link delivered %q, %v", msg, err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d before the canceled send, %d after", base, n)
	}
}

// TestConcurrentSendersShareOneLink: frames from concurrent senders never
// interleave on the shared link.
func TestConcurrentSendersShareOneLink(t *testing.T) {
	tr := &countingTransport{}
	src, dst := clientPair(t, tr, LengthPrefixProtocol{}, 128)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := src.Send(context.Background(), "dst", bytes.Repeat([]byte{byte(i)}, 100+37*i)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[byte]bool)
	for i := 0; i < n; i++ {
		msg, err := dst.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		id := msg[0]
		if !bytes.Equal(msg, bytes.Repeat([]byte{id}, 100+37*int(id))) {
			t.Fatalf("message %d torn: %d bytes", id, len(msg))
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct messages, want %d", len(seen), n)
	}
	if got := tr.dials.Load(); got != 1 {
		t.Errorf("dialed %d times, want 1", got)
	}
}

// TestCloseWithLinksStillOpen: two clients holding links to each other
// close in turn without waiting on one another, and a closed client
// refuses further sends.
func TestCloseWithLinksStillOpen(t *testing.T) {
	reg := NewRegistry()
	a, err := NewMWClient("a", "127.0.0.1:0", reg, nil, LengthPrefixProtocol{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMWClient("b", "127.0.0.1:0", reg, nil, LengthPrefixProtocol{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range []struct {
		from *MWClient
		to   string
	}{{a, "b"}, {b, "a"}} {
		if err := hop.from.Send(context.Background(), hop.to, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*MWClient{a, b} {
		if _, err := c.Recv(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		a.Close() // b's link into a is still up
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("closing clients with open links between them hung")
	}
	if err := a.Send(context.Background(), "b", []byte("late")); err == nil {
		t.Fatal("send on a closed client succeeded")
	}
}

// TestCloseDoesNotWaitForStalledSend: a send with no deadline, stalled on a
// peer that never reads, must not hold up Close; Close fails it instead.
func TestCloseDoesNotWaitForStalledSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // never read
		}
	}()
	src, err := NewMWClient("src", "127.0.0.1:0", NewRegistry(), nil, LengthPrefixProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		// Far more than loopback socket buffers hold: the write must block.
		sent <- src.SendURL(context.Background(), "tcp://"+ln.Addr().String(), make([]byte, 32<<20))
	}()
	defer (<-accepted).Close()
	time.Sleep(50 * time.Millisecond) // let the write fill the buffers

	closed := make(chan struct{})
	go func() {
		src.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited on a send stalled on a peer that is not reading")
	}
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("stalled send reported success after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the stalled send blocked")
	}
}

// TestPipelineStopWithUpstreamLinkOpen: a streaming client keeps its link
// into the pipeline inbound until the client closes, so Stop — called
// directly or by canceling the Start context — must hang up on it instead
// of waiting for it.
func TestPipelineStopWithUpstreamLinkOpen(t *testing.T) {
	for _, how := range []string{"Stop", "cancel"} {
		t.Run(how, func(t *testing.T) {
			src, dst := clientPair(t, nil, LengthPrefixProtocol{}, 4)
			p := NewMifPipeline("held")
			if err := p.AddMifConnector(TCP).SetProperty("tcpProtocol", LengthPrefixProtocol{}); err != nil {
				t.Fatal(err)
			}
			se := NewComponent("SE")
			se.SetInboundEndpoint("tcp://127.0.0.1:0")
			se.SetOutboundEndpoint(dst.URL())
			p.AddMifComponent(se)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := p.Start(ctx); err != nil {
				t.Fatal(err)
			}
			in := p.InboundURLs()[0]
			if err := src.SendURL(context.Background(), in, []byte("relayed")); err != nil {
				t.Fatal(err)
			}
			if msg, err := dst.Recv(context.Background()); err != nil || string(msg) != "relayed" {
				t.Fatalf("relayed %q, %v", msg, err)
			}

			// src still holds its link into the pipeline.
			base := runtime.NumGoroutine()
			stopped := make(chan struct{})
			go func() {
				if how == "cancel" {
					cancel()
				} else {
					p.Stop()
				}
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				t.Fatal("pipeline stop hung on an upstream client's open link")
			}
			// The accept loop and the relay are gone, and so is the Stop the
			// canceled context started: none is parked on the link.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base-2 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base-2 {
				t.Errorf("goroutines: %d with the pipeline up, %d after it stopped, want two fewer", base, n)
			}
			// The client notices on its next send or the one after, redials,
			// and finds nobody listening.
			var err error
			for i := 0; i < 3 && err == nil; i++ {
				err = src.SendURL(context.Background(), in, []byte("late"))
			}
			if err == nil {
				t.Fatal("sends into a stopped pipeline keep succeeding")
			}
		})
	}
}

// TestCloseRacingSendsLeavesNoLink: senders queued on a link when the client
// closes get an error, and none of them redials a connection the closed
// client no longer knows about.
func TestCloseRacingSendsLeavesNoLink(t *testing.T) {
	const senders = 16
	for round := 0; round < 20; round++ {
		tr := &countingTransport{}
		src, _ := clientPair(t, tr, LengthPrefixProtocol{}, 4096)
		started := make(chan struct{}, senders)
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for i := 0; i < 100; i++ {
					if src.Send(context.Background(), "dst", []byte("x")) != nil {
						return
					}
				}
			}()
		}
		<-started
		src.Close()
		wg.Wait()
		if n := tr.open.Load(); n != 0 {
			t.Fatalf("round %d: %d connections still open after Close", round, n)
		}
	}
}

// TestClientFetchSharesOneConnection: a client's successive and concurrent
// fetches from one data server share a single connection and each gets its
// own reply; the server can close while that connection sits idle.
func TestClientFetchSharesOneConnection(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		if string(req) == "bad" {
			return nil, errors.New("no such data")
		}
		return bytes.ToUpper(req), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := &countingTransport{}
	c, err := NewMWClient("site", "127.0.0.1:0", NewRegistry(), tr, LengthPrefixProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		reply, err := c.Fetch(context.Background(), srv.URL(), []byte(fmt.Sprintf("seq-%d", i)))
		if err != nil || string(reply) != fmt.Sprintf("SEQ-%d", i) {
			t.Fatalf("fetch %d: %q, %v", i, reply, err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := c.Fetch(context.Background(), srv.URL(), []byte(fmt.Sprintf("par-%d", i)))
			if err != nil || string(reply) != fmt.Sprintf("PAR-%d", i) {
				t.Errorf("fetch %d: %q, %v", i, reply, err)
			}
		}(i)
	}
	wg.Wait()
	// A handler error is a reply like any other: the stream stays in step
	// and the link stays up.
	if _, err := c.Fetch(context.Background(), srv.URL(), []byte("bad")); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if reply, err := c.Fetch(context.Background(), srv.URL(), []byte("after")); err != nil || string(reply) != "AFTER" {
		t.Fatalf("fetch after a remote error: %q, %v", reply, err)
	}
	if got := tr.dials.Load(); got != 1 {
		t.Errorf("21 fetches, one a remote error, dialed %d times, want 1", got)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("data server close hung on an idle caller's connection")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Fetch(ctx, srv.URL(), []byte("gone")); err == nil {
		t.Fatal("fetch from a closed server succeeded")
	}
}

// lateCtx has a deadline but a timer that never fires: the state a real
// context is in when the connection's copy of its deadline wins the race.
type lateCtx struct {
	context.Context
	deadline time.Time
}

func (c lateCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestConnectionDeadlineFiringFirstIsTheContextExpiring: the connection
// deadline is ctx's own; when it fires before ctx's timer the caller must
// still see context.DeadlineExceeded, not a raw i/o timeout.
func TestConnectionDeadlineFiringFirstIsTheContextExpiring(t *testing.T) {
	block := make(chan struct{})
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	ctx := lateCtx{context.Background(), time.Now().Add(50 * time.Millisecond)}
	_, err = fetchClient(t).Fetch(ctx, srv.URL(), []byte("slow"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ctx.Err() != nil {
		t.Fatal("fixture broken: the context's own timer fired")
	}

	// A timeout before ctx's deadline is somebody else's and stays raw.
	far := lateCtx{context.Background(), time.Now().Add(time.Hour)}
	if err := ctxIOErr(far, os.ErrDeadlineExceeded); errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("early timeout mapped to %v", err)
	}
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestLengthPrefixOneWritePerFrame(t *testing.T) {
	var w writeCounter
	if err := (LengthPrefixProtocol{}).WriteMessage(&w, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes for one frame", w.writes)
	}
	if msg, err := (LengthPrefixProtocol{}).ReadMessage(&w.Buffer); err != nil || string(msg) != "payload" {
		t.Fatalf("read back %q, %v", msg, err)
	}
}

// FuzzLengthPrefixReadMessage feeds arbitrary bytes as one inbound stream:
// reading never panics, never returns a message over the limit, and the
// messages it does return re-encode to exactly the stream bytes consumed.
func FuzzLengthPrefixReadMessage(f *testing.F) {
	p := LengthPrefixProtocol{MaxMessage: 1 << 12}
	frame := func(msgs ...string) []byte {
		var buf bytes.Buffer
		for _, m := range msgs {
			if err := p.WriteMessage(&buf, []byte(m)); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(frame("one"))
	f.Add(frame("first", "", "third"))                      // frames back to back
	f.Add(frame("whole")[:9])                               // truncated body
	f.Add(frame("whole")[:5])                               // truncated header
	f.Add(append(frame("whole"), 0xde, 0xad))               // trailing bytes
	f.Add([]byte{0x10, 0, 0, 0, 0, 0, 0, 0, 'x'})           // oversized count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // short, hostile
	f.Add(append(frame("a")[:8], frame("second frame")...)) // header of one, then another frame
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var replay bytes.Buffer
		for {
			before := r.Len()
			msg, err := p.ReadMessage(r)
			if err != nil {
				if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && before != 0 {
					t.Fatalf("clean EOF reported with %d bytes unread", before)
				}
				break
			}
			if uint64(len(msg)) > p.MaxMessage {
				t.Fatalf("message of %d bytes over the %d limit", len(msg), p.MaxMessage)
			}
			if err := p.WriteMessage(&replay, msg); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(stream, replay.Bytes()) {
			t.Fatal("decoded messages do not re-encode to the stream they came from")
		}
	})
}

func TestPubFrameLayout(t *testing.T) {
	f := pubFrame{Topic: "pmu/bus-30", Payload: []byte{0, 1, 2, 0xff}}
	got, err := decodePubFrame(f.encode())
	if err != nil || got.Topic != f.Topic || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip gave %+v, %v", got, err)
	}
	if got, err := decodePubFrame(pubFrame{}.encode()); err != nil || got.Topic != "" || len(got.Payload) != 0 {
		t.Fatalf("empty frame gave %+v, %v", got, err)
	}
	for name, bad := range map[string][]byte{
		"short header":          {1, 0, 0},
		"topic past the frame":  {5, 0, 0, 0, 'a', 'b'},
		"topic length overflow": {0xff, 0xff, 0xff, 0xff, 'a'},
	} {
		if _, err := decodePubFrame(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
