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

// MifPipeline is a MeDICi pipeline: a set of components wired to TCP
// connectors. Each component with both an inbound and an outbound endpoint
// acts as a one-way store-and-forward router between two state estimators
// (the paper's Figure 7 construction).
type MifPipeline struct {
	name       string
	connectors []*MifConnector
	components []*Component

	mu      sync.Mutex
	started bool
	acc     []*acceptor // one per component, in component order
	unwatch func() bool // detaches Stop from the Start context
}

// NewMifPipeline creates an empty pipeline.
func NewMifPipeline(name string) *MifPipeline {
	return &MifPipeline{name: name}
}

// Name returns the pipeline's name.
func (p *MifPipeline) Name() string { return p.name }

// EndpointProtocol selects the connector transport; only TCP is supported,
// matching the paper's EndpointProtocol.TCP.
type EndpointProtocol int

// TCP is the only connector protocol.
const TCP EndpointProtocol = iota

// MifConnector carries connector-level properties (the paper's
// conn.setProperty("tcpProtocol", new EOFProtocol())).
type MifConnector struct {
	protocol  EndpointProtocol
	transport Transport
	frame     Protocol
	// relayDelayPerByte inserts an artificial per-byte processing cost into
	// the router, used to calibrate the relay rate to the paper's measured
	// ~0.4 GB/s Java middleware (property "relayDelayPerByte").
	relayDelayPerByte time.Duration
}

// AddMifConnector adds a connector to the pipeline and returns it.
func (p *MifPipeline) AddMifConnector(proto EndpointProtocol) *MifConnector {
	c := &MifConnector{protocol: proto, transport: TCPTransport{}, frame: NewEOFProtocol()}
	p.connectors = append(p.connectors, c)
	return c
}

// SetProperty sets a connector property. Supported: "tcpProtocol"
// (Protocol), "transport" (Transport), "relayDelayPerByte" (time.Duration).
func (c *MifConnector) SetProperty(key string, value any) error {
	switch key {
	case "tcpProtocol":
		v, ok := value.(Protocol)
		if !ok {
			return fmt.Errorf("medici: tcpProtocol wants Protocol, got %T", value)
		}
		c.frame = v
	case "transport":
		v, ok := value.(Transport)
		if !ok {
			return fmt.Errorf("medici: transport wants Transport, got %T", value)
		}
		c.transport = v
	case "relayDelayPerByte":
		v, ok := value.(time.Duration)
		if !ok {
			return fmt.Errorf("medici: relayDelayPerByte wants time.Duration, got %T", value)
		}
		c.relayDelayPerByte = v
	default:
		return fmt.Errorf("medici: unknown connector property %q", key)
	}
	return nil
}

// Component is a pipeline component (the paper's SESocket): it owns an
// inbound endpoint the pipeline listens on and an outbound endpoint the
// pipeline forwards to.
type Component struct {
	name      string
	inbound   string
	outbound  string
	connector *MifConnector
}

// NewComponent creates a named component.
func NewComponent(name string) *Component { return &Component{name: name} }

// SetInboundEndpoint assigns the tcp:// URL the pipeline will accept data on.
func (c *Component) SetInboundEndpoint(url string) error {
	if _, err := ParseEndpoint(url); err != nil {
		return err
	}
	c.inbound = url
	return nil
}

// SetOutboundEndpoint assigns the tcp:// URL the pipeline forwards data to.
func (c *Component) SetOutboundEndpoint(url string) error {
	if _, err := ParseEndpoint(url); err != nil {
		return err
	}
	c.outbound = url
	return nil
}

// AddMifComponent attaches a component to the pipeline, binding it to the
// most recently added connector.
func (p *MifPipeline) AddMifComponent(c *Component) error {
	if len(p.connectors) == 0 {
		return errors.New("medici: add a connector before components")
	}
	c.connector = p.connectors[len(p.connectors)-1]
	p.components = append(p.components, c)
	return nil
}

// Start begins listening on every component's inbound endpoint and routing
// messages to its outbound endpoint. It returns once all listeners are
// bound. Canceling ctx stops the pipeline as if Stop had been called; ctx
// also bounds every outbound relay dial.
func (p *MifPipeline) Start(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return fmt.Errorf("medici: pipeline %q already started", p.name)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("medici: pipeline %q start: %w", p.name, err)
	}
	for _, c := range p.components {
		if c.inbound == "" || c.outbound == "" {
			return fmt.Errorf("medici: component %q missing endpoints", c.name)
		}
		in, err := ParseEndpoint(c.inbound)
		if err != nil {
			return err
		}
		ln, err := c.connector.transport.Listen(in.Addr())
		if err != nil {
			return fmt.Errorf("medici: component %q listen %s: %w", c.name, in.Addr(), err)
		}
		acc := newAcceptor(ln)
		p.acc = append(p.acc, acc)
		acc.serve(func(conn net.Conn) {
			if err := p.relay(ctx, c, conn); err != nil && !acc.isClosed() {
				log.Printf("medici: pipeline %q component %q relay: %v", p.name, c.name, err)
			}
		})
	}
	p.unwatch = context.AfterFunc(ctx, p.Stop)
	p.started = true
	return nil
}

// relay is the store-and-forward router: it reads each framed message from
// the inbound connection and writes it to a fresh outbound connection
// (MeDICi semantics: the middleware terminates the producer's connection
// and originates the consumer's).
func (p *MifPipeline) relay(ctx context.Context, c *Component, in net.Conn) error {
	out, err := ParseEndpoint(c.outbound)
	if err != nil {
		return err
	}
	frame := c.connector.frame
	for {
		msg, err := frame.ReadMessage(in)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if d := c.connector.relayDelayPerByte; d > 0 {
			time.Sleep(time.Duration(len(msg)) * d)
		}
		dst, err := c.connector.transport.DialContext(ctx, out.Addr())
		if err != nil {
			return fmt.Errorf("dial outbound %s: %w", out.Addr(), err)
		}
		werr := frame.WriteMessage(dst, msg)
		cerr := dst.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
}

// Stop closes every listener and every inbound connection — an upstream
// client that streams keeps its link open until it closes, so waiting for
// it to hang up first could wait forever — then waits for the relays. A
// message already read off its inbound link is still forwarded; one only
// partly received is dropped. It is safe to call more than once (canceling
// the Start context also calls it).
func (p *MifPipeline) Stop() {
	p.mu.Lock()
	acc := p.acc
	p.acc = nil
	p.started = false
	if p.unwatch != nil {
		p.unwatch()
		p.unwatch = nil
	}
	p.mu.Unlock()
	for _, a := range acc {
		a.close()
	}
}

// InboundURLs returns the bound inbound endpoint URLs, resolving a ":0"
// port to the actual listener address. Must be called after Start.
func (p *MifPipeline) InboundURLs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.acc))
	for i, a := range p.acc {
		out[i] = "tcp://" + a.ln.Addr().String()
	}
	return out
}
