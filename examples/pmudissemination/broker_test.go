package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/medici"
)

func newSubscriber(t *testing.T) *medici.Receiver {
	t.Helper()
	r, err := medici.NewReceiver(nil, "127.0.0.1:0", medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func newTestBroker(t *testing.T, depth int) *Broker {
	t.Helper()
	b, err := NewBroker("127.0.0.1:0", depth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func subscribe(t *testing.T, b *Broker, topic, url string, maxRate float64) {
	t.Helper()
	if err := b.Subscribe(topic, url, maxRate); err != nil {
		t.Fatal(err)
	}
}

func publishAll(t *testing.T, b *Broker, topic string, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := publish(context.Background(), b.URL(), topic, p); err != nil {
			t.Fatal(err)
		}
	}
}

func drainCount(r *medici.Receiver, wait time.Duration) int {
	deadline := time.After(wait)
	count := 0
	for {
		select {
		case <-r.Messages():
			count++
		case <-deadline:
			return count
		}
	}
}

func TestPubSubDelivery(t *testing.T) {
	broker := newTestBroker(t, 64)
	sub := newSubscriber(t)
	subscribe(t, broker, "pmu/area1", sub.URL(), 0)
	for i := 0; i < 5; i++ {
		publishAll(t, broker, "pmu/area1", []byte{byte(i)})
	}
	if got := drainCount(sub, 500*time.Millisecond); got != 5 {
		t.Fatalf("subscriber got %d of 5 messages", got)
	}
}

func TestPubSubTopicIsolation(t *testing.T) {
	broker := newTestBroker(t, 64)
	a := newSubscriber(t)
	b := newSubscriber(t)
	subscribe(t, broker, "topicA", a.URL(), 0)
	subscribe(t, broker, "topicB", b.URL(), 0)
	publishAll(t, broker, "topicA", []byte("for A"), []byte("for A again"))
	publishAll(t, broker, "topicB", []byte("for B"))
	if got := drainCount(a, 400*time.Millisecond); got != 2 {
		t.Errorf("A got %d, want 2", got)
	}
	if got := drainCount(b, 400*time.Millisecond); got != 1 {
		t.Errorf("B got %d, want 1", got)
	}
}

func TestPubSubRateDecimation(t *testing.T) {
	// GridStat's QoS: a slow subscriber gets a decimated stream. Publish a
	// 100-message burst; a 10 msg/s subscriber must see far fewer than an
	// unthrottled one.
	broker := newTestBroker(t, 256)
	fast := newSubscriber(t)
	slow := newSubscriber(t)
	subscribe(t, broker, "pmu", fast.URL(), 0)
	subscribe(t, broker, "pmu", slow.URL(), 10)
	const burst = 100
	for i := 0; i < burst; i++ {
		publishAll(t, broker, "pmu", []byte(fmt.Sprintf("sample-%d", i)))
	}
	fastN := drainCount(fast, time.Second)
	slowN := drainCount(slow, time.Second)
	if fastN != burst {
		t.Errorf("unthrottled subscriber got %d of %d", fastN, burst)
	}
	if slowN >= fastN/2 {
		t.Errorf("throttled subscriber got %d, expected far fewer than %d", slowN, fastN)
	}
	if slowN == 0 {
		t.Error("throttled subscriber got nothing")
	}
	if d := broker.Dropped("pmu", slow.URL()); d != burst-slowN {
		t.Errorf("dropped count %d, want %d", d, burst-slowN)
	}
}

func TestPubSubDeadSubscriberDoesNotBlockOthers(t *testing.T) {
	broker := newTestBroker(t, 64)
	dead := newSubscriber(t)
	deadURL := dead.URL()
	dead.Close()
	alive := newSubscriber(t)
	subscribe(t, broker, "t", deadURL, 0)
	subscribe(t, broker, "t", alive.URL(), 0)
	for i := 0; i < 3; i++ {
		publishAll(t, broker, "t", []byte{byte(i)})
	}
	if got := drainCount(alive, 500*time.Millisecond); got != 3 {
		t.Fatalf("live subscriber got %d of 3 despite dead peer", got)
	}
}

// TestPubSubResubscribeReplacesRate: registering a URL again replaces its
// rate rather than adding a second delivery.
func TestPubSubResubscribeReplacesRate(t *testing.T) {
	broker := newTestBroker(t, 64)
	sub := newSubscriber(t)
	subscribe(t, broker, "t", sub.URL(), 0)
	subscribe(t, broker, "t", sub.URL(), 5)
	publishAll(t, broker, "t", []byte("hit"))
	if got := drainCount(sub, 400*time.Millisecond); got != 1 {
		t.Fatalf("resubscribed receiver got %d messages, want 1 (no duplicates)", got)
	}
}

func TestPubSubValidation(t *testing.T) {
	broker := newTestBroker(t, 4)
	if err := broker.Subscribe("t", "not-a-url", 0); err == nil {
		t.Error("bad subscriber URL accepted")
	}
	if err := publish(context.Background(), "nonsense", "t", nil); err == nil {
		t.Error("bad broker URL accepted")
	}
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
