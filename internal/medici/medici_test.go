package medici

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestParseEndpoint(t *testing.T) {
	ep, err := ParseEndpoint("tcp://nwiceb.pnl.gov:6789")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Host != "nwiceb.pnl.gov" || ep.Port != "6789" {
		t.Fatalf("ep = %+v", ep)
	}
	if ep.Addr() != "nwiceb.pnl.gov:6789" {
		t.Fatalf("addr = %s", ep.Addr())
	}
	if ep.URL() != "tcp://nwiceb.pnl.gov:6789" {
		t.Fatalf("url = %s", ep.URL())
	}
	for _, bad := range []string{"http://x:1", "tcp://nohost", "tcp://", "x"} {
		if _, err := ParseEndpoint(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestLengthPrefixRoundTrip(t *testing.T) {
	p := LengthPrefixProtocol{}
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("hello"), {}, []byte("world"), bytes.Repeat([]byte{7}, 10000)}
	for _, m := range msgs {
		if err := p.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := p.ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if _, err := p.ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestLengthPrefixLimit(t *testing.T) {
	p := LengthPrefixProtocol{MaxMessage: 4}
	var buf bytes.Buffer
	if err := p.WriteMessage(&buf, []byte("too long")); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// Oversized header on the read path.
	big := LengthPrefixProtocol{}
	if err := big.WriteMessage(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadMessage(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("read err = %v", err)
	}
}

func TestLengthPrefixTruncated(t *testing.T) {
	p := LengthPrefixProtocol{}
	var buf bytes.Buffer
	if err := p.WriteMessage(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := p.ReadMessage(trunc); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestEOFProtocol(t *testing.T) {
	p := NewEOFProtocol()
	var buf bytes.Buffer
	if err := p.WriteMessage(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	if _, err := p.ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream err = %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("chinook", "tcp://127.0.0.1:7890"); err != nil {
		t.Fatal(err)
	}
	url, err := r.Resolve("chinook")
	if err != nil || url != "tcp://127.0.0.1:7890" {
		t.Fatalf("resolve = %q, %v", url, err)
	}
	if _, err := r.Resolve("nwiceb"); err == nil {
		t.Fatal("unknown name resolved")
	}
	if err := r.Register("bad", "nonsense"); err == nil {
		t.Fatal("bad URL registered")
	}
	if len(r.Names()) != 1 {
		t.Fatalf("names = %v", r.Names())
	}
}

func TestMWClientSendRecvDirect(t *testing.T) {
	reg := NewRegistry()
	a, err := NewMWClient("a", "127.0.0.1:0", reg, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewMWClient("b", "127.0.0.1:0", reg, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(context.Background(), "b", []byte("pseudo-measurements")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "pseudo-measurements" {
		t.Fatalf("got %q", msg)
	}
	if err := a.Send(context.Background(), "nobody", nil); err == nil {
		t.Fatal("send to unregistered name succeeded")
	}
}

func TestPipelineRelaysOneWay(t *testing.T) {
	// Mirrors the paper's Figure 7: a pipeline relaying from an inbound
	// endpoint to the destination estimator's endpoint.
	reg := NewRegistry()
	dst, err := NewMWClient("chinook", "127.0.0.1:0", reg, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	pipeline := NewMifPipeline("nwiceb-to-chinook")
	conn := pipeline.AddMifConnector(TCP)
	if err := conn.SetProperty("tcpProtocol", NewEOFProtocol()); err != nil {
		t.Fatal(err)
	}
	se := NewComponent("SESocket")
	if err := se.SetInboundEndpoint("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := se.SetOutboundEndpoint(dst.URL()); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.AddMifComponent(se); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer pipeline.Stop()

	src, err := NewMWClient("nwiceb", "127.0.0.1:0", reg, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	payload := bytes.Repeat([]byte("x"), 1<<16)
	if err := src.SendURL(context.Background(), pipeline.InboundURLs()[0], payload); err != nil {
		t.Fatal(err)
	}
	msg, err := dst.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, payload) {
		t.Fatalf("relayed %d bytes, want %d", len(msg), len(payload))
	}
}

func TestPipelineMultipleMessages(t *testing.T) {
	reg := NewRegistry()
	frame := LengthPrefixProtocol{}
	dst, err := NewMWClient("dst", "127.0.0.1:0", reg, nil, frame, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	pipeline := NewMifPipeline("multi")
	conn := pipeline.AddMifConnector(TCP)
	if err := conn.SetProperty("tcpProtocol", frame); err != nil {
		t.Fatal(err)
	}
	se := NewComponent("SE")
	se.SetInboundEndpoint("tcp://127.0.0.1:0")
	se.SetOutboundEndpoint(dst.URL())
	pipeline.AddMifComponent(se)
	if err := pipeline.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer pipeline.Stop()

	src, err := NewMWClient("src", "127.0.0.1:0", reg, nil, frame, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	in := pipeline.InboundURLs()[0]
	for i := 0; i < 5; i++ {
		if err := src.SendURL(context.Background(), in, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte]bool{}
	for i := 0; i < 5; i++ {
		msg, err := dst.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen[msg[0]] = true
	}
	if len(seen) != 5 {
		t.Fatalf("received %d distinct messages, want 5", len(seen))
	}
}

func TestPipelineValidation(t *testing.T) {
	p := NewMifPipeline("bad")
	if err := p.AddMifComponent(NewComponent("c")); err == nil {
		t.Fatal("component without connector accepted")
	}
	p.AddMifConnector(TCP)
	c := NewComponent("c")
	p.AddMifComponent(c)
	if err := p.Start(context.Background()); err == nil {
		t.Fatal("start with missing endpoints accepted")
	}
	if err := c.SetInboundEndpoint("garbage"); err == nil {
		t.Fatal("bad inbound URL accepted")
	}
	conn := p.connectors[0]
	if err := conn.SetProperty("nope", 1); err == nil {
		t.Fatal("unknown property accepted")
	}
	if err := conn.SetProperty("tcpProtocol", 42); err == nil {
		t.Fatal("wrong property type accepted")
	}
}

func TestPipelineDoubleStart(t *testing.T) {
	reg := NewRegistry()
	dst, _ := NewMWClient("d", "127.0.0.1:0", reg, nil, nil, 1)
	defer dst.Close()
	p := NewMifPipeline("p")
	p.AddMifConnector(TCP)
	c := NewComponent("c")
	c.SetInboundEndpoint("tcp://127.0.0.1:0")
	c.SetOutboundEndpoint(dst.URL())
	p.AddMifComponent(c)
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Start(context.Background()); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestReceiverCloseUnblocksRecv(t *testing.T) {
	r, err := NewReceiver(nil, "127.0.0.1:0", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned message after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	// Idempotent close.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSends(t *testing.T) {
	reg := NewRegistry()
	dst, err := NewMWClient("dst", "127.0.0.1:0", reg, nil, nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := NewMWClient("src", "127.0.0.1:0", reg, nil, nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := src.Send(context.Background(), "dst", []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[byte]bool{}
	for i := 0; i < n; i++ {
		msg, err := dst.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen[msg[0]] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct messages, want %d", len(seen), n)
	}
}

func TestMeasureOverheadSmall(t *testing.T) {
	s, err := MeasureOverhead(context.Background(), nil, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Direct <= 0 || s.Relayed <= 0 {
		t.Fatalf("non-positive timings: %+v", s)
	}
	if s.Relayed < s.Direct/4 {
		t.Errorf("relayed %v implausibly faster than direct %v", s.Relayed, s.Direct)
	}
}

func TestMeasureOverheadCalibratedDelay(t *testing.T) {
	// The router sleeps size × delay before it forwards, and a sleep never
	// returns early, so the relayed time has a floor no scheduling noise can
	// lower — unlike a comparison against the separately timed direct run.
	// 64 KiB moves natively in well under a millisecond, so a missing delay
	// cannot reach the floor by accident either.
	const size = 64 << 10
	const perByte = time.Microsecond
	s, err := MeasureOverhead(context.Background(), nil, size, perByte)
	if err != nil {
		t.Fatal(err)
	}
	if floor := size * perByte; s.Relayed < floor {
		t.Errorf("calibrated delay not applied: relayed %v, below the %v floor (direct %v)", s.Relayed, floor, s.Direct)
	}
}

// Property: length-prefix framing round-trips arbitrary byte strings.
func TestLengthPrefixQuick(t *testing.T) {
	p := LengthPrefixProtocol{}
	f := func(msg []byte) bool {
		var buf bytes.Buffer
		if err := p.WriteMessage(&buf, msg); err != nil {
			return false
		}
		got, err := p.ReadMessage(&buf)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMakePayloadDeterministic(t *testing.T) {
	a := makePayload(1000)
	b := makePayload(1000)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	// Not all zeros.
	zero := 0
	for _, x := range a {
		if x == 0 {
			zero++
		}
	}
	if zero > 100 {
		t.Fatalf("%d of 1000 zero bytes — payload too compressible", zero)
	}
}
