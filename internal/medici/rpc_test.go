package medici

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fetchClient is a client with no peers, for tests that only fetch.
func fetchClient(t *testing.T) *MWClient {
	t.Helper()
	c, err := NewMWClient("fetcher", "127.0.0.1:0", NewRegistry(), nil, LengthPrefixProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFetchRoundTrip(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		return append([]byte("data-for:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := fetchClient(t).Fetch(ctx, srv.URL(), []byte("bus-voltages"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "data-for:bus-voltages" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestFetchEmptyReplyBody(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := fetchClient(t).Fetch(ctx, srv.URL(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 0 {
		t.Fatalf("reply = %q, want empty", reply)
	}
}

func TestFetchRemoteError(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		return nil, fmt.Errorf("no measurements for %q", req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err = fetchClient(t).Fetch(ctx, srv.URL(), []byte("nothing"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestFetchConcurrent(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		return bytes.ToUpper(req), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		c := fetchClient(t) // a connection each: the server answers them side by side
		go func(i int) {
			defer wg.Done()
			req := []byte(fmt.Sprintf("req-%d", i))
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			reply, err := c.Fetch(ctx, srv.URL(), req)
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
				return
			}
			if string(reply) != fmt.Sprintf("REQ-%d", i) {
				t.Errorf("fetch %d: got %q", i, reply)
			}
		}(i)
	}
	wg.Wait()
}

func TestFetchDeadServer(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL()
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := fetchClient(t).Fetch(ctx, url, []byte("x")); err == nil {
		t.Fatal("fetch from closed server succeeded")
	}
}

func TestDataServerValidation(t *testing.T) {
	if _, err := NewDataServer(nil, "127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestDataServerDoubleClose(t *testing.T) {
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestFetchDeadlineExpiry(t *testing.T) {
	// A handler that never finishes: the fetch must give up when the
	// context deadline passes and report context.DeadlineExceeded.
	block := make(chan struct{})
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block) // release the handler before Close waits on it

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = fetchClient(t).Fetch(ctx, srv.URL(), []byte("slow"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fetch took %v after a 100ms deadline", elapsed)
	}
}

func TestFetchCancelUnblocks(t *testing.T) {
	block := make(chan struct{})
	srv, err := NewDataServer(nil, "127.0.0.1:0", func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block) // release the handler before Close waits on it

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = fetchClient(t).Fetch(ctx, srv.URL(), []byte("slow"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fetch took %v to honor cancellation", elapsed)
	}
}
