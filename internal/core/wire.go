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
// kinds as one byte. Each layout is the body of one middleware frame, and
// a decoder accepts a buffer only if the lengths it declares account for
// every byte of it — checked before anything is allocated.
//
//	packet:       FromSub i64 | n u32 | n × { BusID i64 | Vm f64 | Va f64 }
//	measurements: n u32 | n × { Kind u8 | Bus i64 | Branch i64 | FromSide u8 | Value f64 | Sigma f64 }
//	envelope:     Kind u8 | FromSub i64 | ToSub i64 | len u32 | payload
//	data request: subsystem u32
const (
	packetHeaderSize   = 12
	busStateSize       = 24
	measHeaderSize     = 4
	measSize           = 34
	envelopeHeaderSize = 21
	subRequestSize     = 4
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
// host many state estimators behind a single endpoint.
type Envelope struct {
	Kind    EnvelopeKind
	FromSub int
	ToSub   int
	Payload []byte
}

func (e Envelope) encode() ([]byte, error) {
	if uint64(len(e.Payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: envelope payload of %d bytes exceeds the wire format", len(e.Payload))
	}
	b := make([]byte, 0, envelopeHeaderSize+len(e.Payload))
	b = append(b, byte(e.Kind))
	b = le.AppendUint64(b, uint64(e.FromSub))
	b = le.AppendUint64(b, uint64(e.ToSub))
	b = le.AppendUint32(b, uint32(len(e.Payload)))
	return append(b, e.Payload...), nil
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

// EncodePacket serializes a pseudo packet for middleware transmission:
// 12 + 24·len(p.States) bytes.
func EncodePacket(p PseudoPacket) ([]byte, error) {
	if uint64(len(p.States)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: pseudo packet of %d states exceeds the wire format", len(p.States))
	}
	b := make([]byte, 0, packetHeaderSize+busStateSize*len(p.States))
	b = le.AppendUint64(b, uint64(p.FromSub))
	b = le.AppendUint32(b, uint32(len(p.States)))
	for _, s := range p.States {
		b = le.AppendUint64(b, uint64(s.BusID))
		b = le.AppendUint64(b, math.Float64bits(s.Vm))
		b = le.AppendUint64(b, math.Float64bits(s.Va))
	}
	return b, nil
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

// encodeMeasurements serializes a subsystem's raw measurements, what the
// data source serves and a migration ships: 4 + 34·len(ms) bytes.
func encodeMeasurements(ms []meas.Measurement) ([]byte, error) {
	if uint64(len(ms)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: %d measurements exceed the wire format", len(ms))
	}
	b := make([]byte, 0, measHeaderSize+measSize*len(ms))
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

// decodeMeasurements is the inverse of encodeMeasurements: what a site's
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

// encodeSubRequest is the data-source request for one subsystem's raw
// measurements.
func encodeSubRequest(si int) []byte {
	return le.AppendUint32(make([]byte, 0, subRequestSize), uint32(si))
}

// parseSubRequest decodes a data-source request against m subsystems.
func parseSubRequest(req []byte, m int) (int, error) {
	if len(req) != subRequestSize {
		return 0, fmt.Errorf("%w: data request of %d bytes", errWire, len(req))
	}
	si := le.Uint32(req)
	if uint64(si) >= uint64(m) {
		return 0, fmt.Errorf("core: data request for unknown subsystem %d", si)
	}
	return int(si), nil
}
