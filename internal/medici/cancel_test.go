package medici

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestReceiverRecvUnblocksOnCancel: a Recv blocked on an empty buffer must
// return promptly with ctx.Err() when the caller's context is canceled,
// leaving the receiver itself usable.
func TestReceiverRecvUnblocksOnCancel(t *testing.T) {
	r, err := NewReceiver(nil, "127.0.0.1:0", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Recv(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on context cancellation")
	}

	// The receiver survives: a fresh context with a deadline still works.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if _, err := r.Recv(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("post-cancel Recv err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSendURLCancelBeforeDial: an already-canceled context must stop
// SendURL before (or during) the dial and surface ctx.Err().
func TestSendURLCancelBeforeDial(t *testing.T) {
	reg := NewRegistry()
	dst, err := NewMWClient("dst", "127.0.0.1:0", reg, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := NewMWClient("src", "127.0.0.1:0", reg, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := src.SendURL(ctx, dst.URL(), []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
