package main

import (
	"context"
	"encoding/binary"
	"errors"
	"log"
	"sync"
	"time"

	"repro/internal/medici"
)

// The publish/subscribe layer mirrors GridStat (Bakken et al.), the
// middleware the paper's related-work section discusses for power-grid
// status dissemination: publishers push topic-tagged updates (e.g. PMU
// streams) to a broker, and each subscriber receives them at its own
// requested rate — the broker decimates faster streams per subscriber,
// GridStat's core QoS mechanism. Publications and deliveries are medici
// length-prefix frames over plain TCP, one connection each.

// pubFrame is one publication. On the wire it is the body of a
// length-prefix frame: a 4-byte little-endian topic length, the topic,
// then the payload to the end of the frame.
type pubFrame struct {
	Topic   string
	Payload []byte
}

func (f pubFrame) encode() []byte {
	b := make([]byte, 0, 4+len(f.Topic)+len(f.Payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Topic)))
	b = append(b, f.Topic...)
	return append(b, f.Payload...)
}

// decodePubFrame checks the topic length against the frame before slicing;
// Payload aliases b.
func decodePubFrame(b []byte) (pubFrame, error) {
	if len(b) < 4 {
		return pubFrame{}, errors.New("broker: publish frame shorter than its header")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return pubFrame{}, errors.New("broker: publish frame topic length exceeds the frame")
	}
	return pubFrame{Topic: string(b[4 : 4+n]), Payload: b[4+n:]}, nil
}

// publish sends one topic update to the broker at url.
func publish(ctx context.Context, url, topic string, payload []byte) error {
	return send(ctx, url, pubFrame{Topic: topic, Payload: payload}.encode())
}

// send dials url, writes msg as one length-prefix frame and hangs up; ctx
// bounds the dial.
func send(ctx context.Context, url string, msg []byte) error {
	ep, err := medici.ParseEndpoint(url)
	if err != nil {
		return err
	}
	conn, err := medici.TCPTransport{}.DialContext(ctx, ep.Addr())
	if err != nil {
		return err
	}
	werr := medici.LengthPrefixProtocol{}.WriteMessage(conn, msg)
	if cerr := conn.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Broker is a topic-based publish/subscribe router with per-subscriber
// rate control.
type Broker struct {
	recv *medici.Receiver

	// baseCtx bounds broker-originated I/O (subscriber deliveries); it is
	// canceled when the broker closes.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu   sync.Mutex
	subs map[string][]*subscription
	wg   sync.WaitGroup
}

type subscription struct {
	url     string
	minGap  time.Duration // 1/maxRate; 0 = every message
	last    time.Time
	dropped int
}

// NewBroker starts a broker listening on addr (":0" = ephemeral) that
// buffers up to depth publications.
func NewBroker(addr string, depth int) (*Broker, error) {
	recv, err := medici.NewReceiver(nil, addr, medici.LengthPrefixProtocol{}, depth)
	if err != nil {
		return nil, err
	}
	b := &Broker{recv: recv, subs: make(map[string][]*subscription)}
	b.baseCtx, b.cancel = context.WithCancel(context.Background())
	b.wg.Add(1)
	go b.dispatchLoop()
	return b, nil
}

// URL returns the broker's publish endpoint.
func (b *Broker) URL() string { return b.recv.URL() }

// Subscribe registers url to receive topic updates at most maxRate
// messages per second (0 = unthrottled). Registering the same URL again
// replaces its rate.
func (b *Broker) Subscribe(topic, url string, maxRate float64) error {
	if _, err := medici.ParseEndpoint(url); err != nil {
		return err
	}
	var gap time.Duration
	if maxRate > 0 {
		gap = time.Duration(float64(time.Second) / maxRate)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.subs[topic] {
		if s.url == url {
			s.minGap = gap
			return nil
		}
	}
	b.subs[topic] = append(b.subs[topic], &subscription{url: url, minGap: gap})
	return nil
}

// Dropped returns how many updates were decimated for (topic, url).
func (b *Broker) Dropped(topic, url string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.subs[topic] {
		if s.url == url {
			return s.dropped
		}
	}
	return 0
}

func (b *Broker) dispatchLoop() {
	defer b.wg.Done()
	for {
		msg, err := b.recv.Recv(b.baseCtx)
		if err != nil {
			return // broker closed
		}
		f, err := decodePubFrame(msg)
		if err != nil {
			log.Print(err)
			continue
		}
		b.deliver(f)
	}
}

// deliverTimeout bounds the broker's dial to each subscriber so one dead
// subscriber cannot stall the dispatch loop.
const deliverTimeout = 5 * time.Second

func (b *Broker) deliver(f pubFrame) {
	now := time.Now()
	b.mu.Lock()
	var targets []string
	for _, s := range b.subs[f.Topic] {
		if s.minGap > 0 && now.Sub(s.last) < s.minGap {
			s.dropped++
			continue // decimated for this subscriber
		}
		s.last = now
		targets = append(targets, s.url)
	}
	b.mu.Unlock()
	for _, url := range targets {
		dctx, dcancel := context.WithTimeout(b.baseCtx, deliverTimeout)
		if err := send(dctx, url, f.Payload); err != nil {
			log.Printf("broker: delivering to %s: %v", url, err)
		}
		dcancel()
	}
}

// Close stops the broker and cancels any in-flight deliveries.
func (b *Broker) Close() error {
	b.cancel()
	err := b.recv.Close()
	b.wg.Wait()
	return err
}
