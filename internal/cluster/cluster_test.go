package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/medici"
)

func TestShapedLinkBandwidth(t *testing.T) {
	// 1 MB over a 10 MB/s link must take ≥ ~100 ms end to end.
	tr := NewShapedTransport(LinkProfile{Bandwidth: 10e6}, nil)
	reg := medici.NewRegistry()
	dst, err := medici.NewMWClient("dst", "127.0.0.1:0", reg, tr, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := medici.NewMWClient("src", "127.0.0.1:0", reg, tr, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	payload := bytes.Repeat([]byte{1}, 1<<20)
	start := time.Now()
	if err := src.Send(context.Background(), "dst", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond {
		t.Errorf("1MB over 10MB/s link took %v, want ≥ ~100ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("shaping overshoot: %v", elapsed)
	}
}

func TestShapedLinkLatency(t *testing.T) {
	tr := NewShapedTransport(LinkProfile{Latency: 50 * time.Millisecond}, nil)
	reg := medici.NewRegistry()
	dst, err := medici.NewMWClient("dst", "127.0.0.1:0", reg, tr, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := medici.NewMWClient("src", "127.0.0.1:0", reg, tr, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	start := time.Now()
	if err := src.Send(context.Background(), "dst", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

// TestShapedLatencyChargedPerMessage: a persistent link must not hide the
// lab network's latency behind its first message — k envelopes sent in
// turn over one 20 ms link take at least k × 20 ms, what k connections
// used to cost.
func TestShapedLatencyChargedPerMessage(t *testing.T) {
	const k = 4
	const latency = 20 * time.Millisecond
	tb, err := NewTestbed(2, 1, NewShapedTransport(LinkProfile{Latency: latency}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	src, dst := tb.Sites[0], tb.Sites[1]

	start := time.Now()
	for i := 0; i < k; i++ {
		if err := src.Client().Send(context.Background(), dst.Name, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		msg, err := dst.Client().Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("envelope %d arrived as %d: one link must keep order", i, msg[0])
		}
	}
	if elapsed := time.Since(start); elapsed < k*latency {
		t.Errorf("%d envelopes over a %v link took %v, want ≥ %v", k, latency, elapsed, k*latency)
	}
}

// TestTestbedCloseWithLinksUp: every site holds links into every other;
// closing the testbed must not have one site wait on a handler that is
// reading another site's still-open link.
func TestTestbedCloseWithLinksUp(t *testing.T) {
	tb, err := NewTestbed(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range tb.Sites {
		for _, to := range tb.Sites {
			if from == to {
				continue
			}
			if err := from.Client().Send(context.Background(), to.Name, []byte(from.Name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range tb.Sites {
		for i := 0; i < len(tb.Sites)-1; i++ {
			if _, err := s.Client().Recv(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	closed := make(chan struct{})
	go func() {
		tb.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Testbed.Close hung with inbound links still open")
	}
}

func TestUnshapedPassThrough(t *testing.T) {
	tr := NewShapedTransport(LoopbackProfile(), nil)
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := tr.Dial(ln.Addr().String())
		if err != nil {
			return
		}
		c.Write([]byte("x"))
		c.Close()
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'x' {
		t.Fatal("data corrupted")
	}
}

func TestProfileString(t *testing.T) {
	if LoopbackProfile().String() != "unshaped" {
		t.Fatal("loopback string")
	}
	if LabNetworkProfile().String() == "unshaped" {
		t.Fatal("lab profile should describe shaping")
	}
}

func TestTestbedSites(t *testing.T) {
	tb, err := NewTestbed(3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if len(tb.Sites) != 3 {
		t.Fatalf("%d sites", len(tb.Sites))
	}
	if tb.Sites[0].Name != "Nwiceb" || tb.Sites[2].Name != "Chinook" {
		t.Fatalf("site names %s, %s", tb.Sites[0].Name, tb.Sites[2].Name)
	}
	// Sites can message each other by name.
	if err := tb.Sites[0].Client().Send(context.Background(), "Chinook", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, err := tb.Sites[2].Client().Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hello" {
		t.Fatalf("got %q", msg)
	}
}

func TestNewTestbedSiteNamesBeyondThree(t *testing.T) {
	tb, err := NewTestbed(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.Sites[3].Name != "site3" || tb.Sites[4].Name != "site4" {
		t.Fatalf("names: %s %s", tb.Sites[3].Name, tb.Sites[4].Name)
	}
}
