// Package medici is a from-scratch Go reimplementation of the slice of
// PNNL's MeDICi data-intensive middleware that the paper uses: pipelines of
// components wired by TCP inbound/outbound endpoints, acting as a
// store-and-forward router between distributed state estimators. Estimators
// address each other by URL; a registry resolves names to endpoints; the
// MWClient Send/Recv pair mirrors the paper's MW_Client_Send/MW_Client_Recv
// functions (Figure 6), and Pipeline construction mirrors Figure 7.
package medici

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol frames messages on a byte stream. Implementations must be safe
// for concurrent use by independent connections.
type Protocol interface {
	// WriteMessage writes one framed message.
	WriteMessage(w io.Writer, msg []byte) error
	// ReadMessage reads one framed message. io.EOF signals a clean end of
	// stream before any byte of a new message.
	ReadMessage(r io.Reader) ([]byte, error)
	// Name identifies the protocol ("eof", "lengthPrefix").
	Name() string
	// Streams reports whether messages are delimited inside the byte
	// stream, so one connection can carry many of them. A protocol that
	// returns false ends its message by closing the connection; senders
	// then dial once per message and never keep the link.
	Streams() bool
}

// EOFProtocol delimits exactly one message per connection: the writer
// closes the stream to mark the end (the paper's `new EOFProtocol()` TCP
// connector property). ReadMessage therefore consumes the whole stream.
type EOFProtocol struct{}

// NewEOFProtocol returns the close-delimited protocol (Figure 7's
// tcpProtocol property).
func NewEOFProtocol() EOFProtocol { return EOFProtocol{} }

// WriteMessage implements Protocol. The caller must close the connection
// after the last message; EOFProtocol supports one message per stream.
func (EOFProtocol) WriteMessage(w io.Writer, msg []byte) error {
	_, err := w.Write(msg)
	return err
}

// ReadMessage implements Protocol by reading until EOF.
func (EOFProtocol) ReadMessage(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// Name implements Protocol.
func (EOFProtocol) Name() string { return "eof" }

// Streams implements Protocol: the close is the delimiter.
func (EOFProtocol) Streams() bool { return false }

// LengthPrefixProtocol frames each message with an 8-byte big-endian
// length, allowing many messages per connection. MaxMessage guards against
// hostile or corrupt headers; zero means 1 GiB.
type LengthPrefixProtocol struct {
	MaxMessage uint64
}

// ErrMessageTooLarge reports a frame header exceeding the protocol limit.
var ErrMessageTooLarge = errors.New("medici: message exceeds protocol size limit")

func (p LengthPrefixProtocol) limit() uint64 {
	if p.MaxMessage == 0 {
		return 1 << 30
	}
	return p.MaxMessage
}

// WriteMessage implements Protocol. Header and body leave in one Write, so
// a frame costs one syscall and a shaped link sees it as one message.
func (p LengthPrefixProtocol) WriteMessage(w io.Writer, msg []byte) error {
	if uint64(len(msg)) > p.limit() {
		return fmt.Errorf("%w: %d > %d", ErrMessageTooLarge, len(msg), p.limit())
	}
	frame := make([]byte, 8+len(msg))
	binary.BigEndian.PutUint64(frame, uint64(len(msg)))
	copy(frame[8:], msg)
	_, err := w.Write(frame)
	return err
}

// ReadMessage implements Protocol.
func (p LengthPrefixProtocol) ReadMessage(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF before any header byte = clean end
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > p.limit() {
		return nil, fmt.Errorf("%w: header %d > %d", ErrMessageTooLarge, n, p.limit())
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the header promised a body: not a clean end
		}
		return nil, fmt.Errorf("medici: truncated message body: %w", err)
	}
	return msg, nil
}

// Name implements Protocol.
func (p LengthPrefixProtocol) Name() string { return "lengthPrefix" }

// Streams implements Protocol.
func (p LengthPrefixProtocol) Streams() bool { return true }
