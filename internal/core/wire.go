package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/meas"
)

// Wire format of the distributed run. Everything a site hands to the
// middleware is a fixed little-endian layout: integers as two's-complement
// int64, counts and lengths as uint32, float64 as its IEEE-754 bits (so a
// value crosses the wire bit for bit, NaN payloads included), bools and
// kinds as one byte. A decoder accepts a buffer only if the lengths it
// declares account for every byte of it — checked before anything is
// allocated.
//
//	packet:       FromSub i64 | n u32 | n × { BusID i64 | Vm f64 | Va f64 }
//	measurements: n u32 | n × { Kind u8 | Bus i64 | Branch i64 | FromSide u8 | Value f64 | Sigma f64 }
//	envelope:     Kind u8 | FromSub i64 | ToSub i64 | len u32 | payload
//	frame list:   n u32 | n × { len u32 | body }
//	data request: n u32 | n × subsystem u32
//
// What crosses a link is one middleware frame per site pair and phase: a
// bundle — the frame list of the envelopes one site owes another — in the
// exchange and the redistribution, and in acquisition one data request per
// site, answered by the frame list of the measurement sets it names.
const (
	packetHeaderSize    = 12
	busStateSize        = 24
	measHeaderSize      = 4
	measSize            = 34
	envelopeHeaderSize  = 21
	frameListHeaderSize = 4
	frameLenSize        = 4
	requestHeaderSize   = 4
	subRequestSize      = 4
)

var le = binary.LittleEndian

// errWire marks a buffer that is not a well-formed instance of its layout.
var errWire = errors.New("core: malformed wire data")

// EnvelopeKind says what an Envelope carries.
type EnvelopeKind uint8

const (
	// EnvelopePseudo carries an encoded PseudoPacket for DSE Step 2.
	EnvelopePseudo EnvelopeKind = iota + 1
	// EnvelopeMigrate carries a re-mapped subsystem's encoded raw
	// measurements to its new site.
	EnvelopeMigrate
)

// Envelope wraps middleware payloads with routing metadata so one site can
// host many state estimators behind a single endpoint. It is the decoded
// form, Payload still in wire bytes; outEnvelope is what a sender encodes.
type Envelope struct {
	Kind    EnvelopeKind
	FromSub int
	ToSub   int
	Payload []byte
}

func appendEnvelopeHeader(b []byte, kind EnvelopeKind, fromSub, toSub, payloadLen int) []byte {
	b = append(b, byte(kind))
	b = le.AppendUint64(b, uint64(fromSub))
	b = le.AppendUint64(b, uint64(toSub))
	return le.AppendUint32(b, uint32(payloadLen))
}

// outEnvelope is an envelope on its way out: the routing metadata and the
// value its payload serializes — a pseudo packet (EnvelopePseudo) or, with
// Packet nil, a raw measurement set (EnvelopeMigrate) — so that a bundle
// writes each payload's bytes once, straight into its own buffer.
type outEnvelope struct {
	FromSub, ToSub int
	Packet         *PseudoPacket
	Meas           []meas.Measurement
}

func (e outEnvelope) payloadSize() int {
	if e.Packet != nil {
		return e.Packet.wireSize()
	}
	return measHeaderSize + measSize*len(e.Meas)
}

// appendTo writes the envelope's layout, header and payload, onto b.
func (e outEnvelope) appendTo(b []byte) ([]byte, error) {
	if e.Packet != nil {
		b = appendEnvelopeHeader(b, EnvelopePseudo, e.FromSub, e.ToSub, e.payloadSize())
		return appendPacket(b, *e.Packet), nil
	}
	return appendMeasurements(appendEnvelopeHeader(b, EnvelopeMigrate, e.FromSub, e.ToSub, e.payloadSize()), e.Meas)
}

// encodeBundle serializes the envelopes one site owes another in one phase
// as a frame list.
func encodeBundle(envs []outEnvelope) ([]byte, error) {
	return encodeFrameList(len(envs),
		func(i int) int { return envelopeHeaderSize + envs[i].payloadSize() },
		func(b []byte, i int) ([]byte, error) { return envs[i].appendTo(b) })
}

// encodeMeasurementSets is the data source's reply to one request: the
// frame list of the requested subsystems' measurement sets, in request
// order.
func encodeMeasurementSets(sets [][]meas.Measurement) ([]byte, error) {
	return encodeFrameList(len(sets),
		func(i int) int { return measHeaderSize + measSize*len(sets[i]) },
		func(b []byte, i int) ([]byte, error) { return appendMeasurements(b, sets[i]) })
}

// encodeFrameList writes a list of n frames into a single buffer allocated
// at its final size: the sizes are known before a byte is written, so each
// body is appended in place — no intermediate frame, no growth.
func encodeFrameList(n int, bodySize func(i int) int, appendBody func(b []byte, i int) ([]byte, error)) ([]byte, error) {
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("core: a list of %d frames exceeds the wire format", n)
	}
	size := frameListHeaderSize
	for i := 0; i < n; i++ {
		body := bodySize(i)
		if uint64(body) > math.MaxUint32 {
			return nil, fmt.Errorf("core: frame %d of %d bytes exceeds the wire format", i, body)
		}
		size += frameLenSize + body
	}
	b := le.AppendUint32(make([]byte, 0, size), uint32(n))
	for i := 0; i < n; i++ {
		b = le.AppendUint32(b, uint32(bodySize(i)))
		var err error
		if b, err = appendBody(b, i); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeFrameList splits a frame list into its bodies, which alias b.
func decodeFrameList(b []byte) ([][]byte, error) {
	if len(b) < frameListHeaderSize {
		return nil, fmt.Errorf("%w: frame list of %d bytes is shorter than its header", errWire, len(b))
	}
	n := le.Uint32(b)
	rest := b[frameListHeaderSize:]
	// The walk checks every length against what is left, so n is bounded by
	// the buffer (a frame is at least its length field) before it sizes
	// anything.
	for i := uint32(0); i < n; i++ {
		if len(rest) < frameLenSize {
			return nil, fmt.Errorf("%w: frame list ends inside the length of frame %d", errWire, i)
		}
		size := le.Uint32(rest)
		rest = rest[frameLenSize:]
		if uint64(size) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: frame %d declares %d bytes, %d left", errWire, i, size, len(rest))
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last of %d frames", errWire, len(rest), n)
	}
	frames := make([][]byte, n)
	rest = b[frameListHeaderSize:]
	for i := range frames {
		end := frameLenSize + int(le.Uint32(rest))
		frames[i] = rest[frameLenSize:end:end]
		rest = rest[end:]
	}
	return frames, nil
}

// decodeEnvelope parses one envelope frame; Payload aliases b.
func decodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < envelopeHeaderSize {
		return Envelope{}, fmt.Errorf("%w: envelope of %d bytes is shorter than its header", errWire, len(b))
	}
	e := Envelope{
		Kind:    EnvelopeKind(b[0]),
		FromSub: int(int64(le.Uint64(b[1:]))),
		ToSub:   int(int64(le.Uint64(b[9:]))),
	}
	if e.Kind != EnvelopePseudo && e.Kind != EnvelopeMigrate {
		return Envelope{}, fmt.Errorf("%w: unknown envelope kind %d", errWire, b[0])
	}
	if n := le.Uint32(b[17:]); uint64(n) != uint64(len(b)-envelopeHeaderSize) {
		return Envelope{}, fmt.Errorf("%w: envelope declares a %d-byte payload, frame holds %d", errWire, n, len(b)-envelopeHeaderSize)
	}
	e.Payload = b[envelopeHeaderSize:]
	return e, nil
}

// wireSize is the length of p's layout: 12 + 24·len(p.States) bytes.
func (p PseudoPacket) wireSize() int { return packetHeaderSize + busStateSize*len(p.States) }

// EncodePacket serializes a pseudo packet for middleware transmission, in
// wireSize bytes.
func EncodePacket(p PseudoPacket) ([]byte, error) {
	if uint64(len(p.States)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: pseudo packet of %d states exceeds the wire format", len(p.States))
	}
	return appendPacket(make([]byte, 0, p.wireSize()), p), nil
}

// appendPacket writes p's layout onto b; the caller has checked the count.
func appendPacket(b []byte, p PseudoPacket) []byte {
	b = le.AppendUint64(b, uint64(p.FromSub))
	b = le.AppendUint32(b, uint32(len(p.States)))
	for _, s := range p.States {
		b = le.AppendUint64(b, uint64(s.BusID))
		b = le.AppendUint64(b, math.Float64bits(s.Vm))
		b = le.AppendUint64(b, math.Float64bits(s.Va))
	}
	return b
}

// DecodePacket deserializes a pseudo packet received from the middleware.
func DecodePacket(b []byte) (PseudoPacket, error) {
	if len(b) < packetHeaderSize {
		return PseudoPacket{}, fmt.Errorf("%w: pseudo packet of %d bytes is shorter than its header", errWire, len(b))
	}
	n := le.Uint32(b[8:])
	if uint64(len(b)-packetHeaderSize) != uint64(n)*busStateSize {
		return PseudoPacket{}, fmt.Errorf("%w: pseudo packet declares %d states, frame holds %d bytes of them", errWire, n, len(b)-packetHeaderSize)
	}
	p := PseudoPacket{FromSub: int(int64(le.Uint64(b)))}
	if n > 0 {
		p.States = make([]BusState, n)
	}
	b = b[packetHeaderSize:]
	for i := range p.States {
		p.States[i] = BusState{
			BusID: int(int64(le.Uint64(b))),
			Vm:    math.Float64frombits(le.Uint64(b[8:])),
			Va:    math.Float64frombits(le.Uint64(b[16:])),
		}
		b = b[busStateSize:]
	}
	return p, nil
}

// appendMeasurements writes a subsystem's raw measurements onto b, what the
// data source serves and a migration ships: 4 + 34·len(ms) bytes.
func appendMeasurements(b []byte, ms []meas.Measurement) ([]byte, error) {
	if uint64(len(ms)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: %d measurements exceed the wire format", len(ms))
	}
	b = le.AppendUint32(b, uint32(len(ms)))
	for i, m := range ms {
		if m.Kind < 0 || m.Kind > math.MaxUint8 {
			return nil, fmt.Errorf("core: measurement %d has kind %d, outside the wire format's one byte", i, int(m.Kind))
		}
		b = append(b, byte(m.Kind))
		b = le.AppendUint64(b, uint64(m.Bus))
		b = le.AppendUint64(b, uint64(m.Branch))
		b = append(b, boolByte(m.FromSide))
		b = le.AppendUint64(b, math.Float64bits(m.Value))
		b = le.AppendUint64(b, math.Float64bits(m.Sigma))
	}
	return b, nil
}

// decodeMeasurements is the inverse of appendMeasurements: what a site's
// data processor runs on delivered raw data. The distributed run does not
// call it — its sites estimate from the model already in memory, as they
// always have — so the format's second half is held by the round-trip and
// fuzz tests alone.
func decodeMeasurements(b []byte) ([]meas.Measurement, error) {
	if len(b) < measHeaderSize {
		return nil, fmt.Errorf("%w: measurement set of %d bytes is shorter than its header", errWire, len(b))
	}
	n := le.Uint32(b)
	if uint64(len(b)-measHeaderSize) != uint64(n)*measSize {
		return nil, fmt.Errorf("%w: measurement set declares %d entries, frame holds %d bytes of them", errWire, n, len(b)-measHeaderSize)
	}
	var ms []meas.Measurement
	if n > 0 {
		ms = make([]meas.Measurement, n)
	}
	b = b[measHeaderSize:]
	for i := range ms {
		if b[17] > 1 {
			return nil, fmt.Errorf("%w: measurement %d has side byte %d", errWire, i, b[17])
		}
		ms[i] = meas.Measurement{
			Kind:     meas.Kind(b[0]),
			Bus:      int(int64(le.Uint64(b[1:]))),
			Branch:   int(int64(le.Uint64(b[9:]))),
			FromSide: b[17] == 1,
			Value:    math.Float64frombits(le.Uint64(b[18:])),
			Sigma:    math.Float64frombits(le.Uint64(b[26:])),
		}
		b = b[measSize:]
	}
	return ms, nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// encodeSubRequest is a site's data-source request for the raw measurements
// of the subsystems it hosts.
func encodeSubRequest(subs []int) []byte {
	b := le.AppendUint32(make([]byte, 0, requestHeaderSize+subRequestSize*len(subs)), uint32(len(subs)))
	for _, si := range subs {
		b = le.AppendUint32(b, uint32(si))
	}
	return b
}

// parseSubRequest decodes a data-source request against m subsystems.
func parseSubRequest(req []byte, m int) ([]int, error) {
	if len(req) < requestHeaderSize {
		return nil, fmt.Errorf("%w: data request of %d bytes", errWire, len(req))
	}
	n := le.Uint32(req)
	req = req[requestHeaderSize:]
	if uint64(len(req)) != uint64(n)*subRequestSize {
		return nil, fmt.Errorf("%w: data request declares %d subsystems, holds %d bytes of them", errWire, n, len(req))
	}
	subs := make([]int, n)
	for i := range subs {
		si := le.Uint32(req[subRequestSize*i:])
		if uint64(si) >= uint64(m) {
			return nil, fmt.Errorf("core: data request for unknown subsystem %d", si)
		}
		subs[i] = int(si)
	}
	return subs, nil
}
