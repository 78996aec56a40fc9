package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/meas"
)

// floats worth a wire crossing: NaNs with distinct payloads, signed zeros,
// infinities, subnormals.
var oddFloatBits = []uint64{
	0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // quiet, negative quiet, signalling NaN
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x0000000000000001, 0x3ff0000000000000,
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return math.Float64frombits(oddFloatBits[rng.Intn(len(oddFloatBits))])
	}
	return math.Float64frombits(rng.Uint64())
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return -rng.Intn(1000) - 1 // negative bus IDs are legal external numbers
	}
	return int(rng.Uint64())
}

func samePacket(a, b PseudoPacket) bool {
	if a.FromSub != b.FromSub || len(a.States) != len(b.States) {
		return false
	}
	for i := range a.States {
		x, y := a.States[i], b.States[i]
		if x.BusID != y.BusID || math.Float64bits(x.Vm) != math.Float64bits(y.Vm) || math.Float64bits(x.Va) != math.Float64bits(y.Va) {
			return false
		}
	}
	return true
}

func sameMeasurements(a, b []meas.Measurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Bus != y.Bus || x.Branch != y.Branch || x.FromSide != y.FromSide ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) || math.Float64bits(x.Sigma) != math.Float64bits(y.Sigma) {
			return false
		}
	}
	return true
}

// TestWireRoundTrip: Decode(Encode(v)) == v bit for bit, and every layout
// has exactly the size the wire accounting relies on.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		if trial < 2 {
			n = trial // empty and single-entry payloads
		}

		pkt := PseudoPacket{FromSub: randInt(rng)}
		for i := 0; i < n; i++ {
			pkt.States = append(pkt.States, BusState{BusID: randInt(rng), Vm: randFloat(rng), Va: randFloat(rng)})
		}
		pb, err := EncodePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if len(pb) != 12+24*n {
			t.Fatalf("packet of %d states is %d bytes, want %d", n, len(pb), 12+24*n)
		}
		if got, err := DecodePacket(pb); err != nil || !samePacket(got, pkt) {
			t.Fatalf("packet round trip: %+v, %v; want %+v", got, err, pkt)
		}

		var ms []meas.Measurement
		for i := 0; i < n; i++ {
			ms = append(ms, meas.Measurement{
				Kind: meas.Kind(rng.Intn(256)), Bus: randInt(rng), Branch: randInt(rng),
				FromSide: rng.Intn(2) == 1, Value: randFloat(rng), Sigma: randFloat(rng),
			})
		}
		mb, err := encodeMeasurements(ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(mb) != 4+34*n {
			t.Fatalf("%d measurements are %d bytes, want %d", n, len(mb), 4+34*n)
		}
		if got, err := decodeMeasurements(mb); err != nil || !sameMeasurements(got, ms) {
			t.Fatalf("measurement round trip: %+v, %v; want %+v", got, err, ms)
		}

		env := Envelope{Kind: EnvelopePseudo + EnvelopeKind(rng.Intn(2)), FromSub: randInt(rng), ToSub: randInt(rng), Payload: pb}
		eb, err := env.encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(eb) != 21+len(pb) {
			t.Fatalf("envelope is %d bytes, want %d", len(eb), 21+len(pb))
		}
		got, err := decodeEnvelope(eb)
		if err != nil || got.Kind != env.Kind || got.FromSub != env.FromSub || got.ToSub != env.ToSub || !bytes.Equal(got.Payload, env.Payload) {
			t.Fatalf("envelope round trip: %+v, %v; want %+v", got, err, env)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	pkt, _ := EncodePacket(PseudoPacket{FromSub: 3, States: []BusState{{BusID: 1, Vm: 1, Va: 0}, {BusID: 2, Vm: 1, Va: 0}}})
	ms, _ := encodeMeasurements([]meas.Measurement{{Kind: meas.Pflow, Branch: 7, FromSide: true, Value: 0.5, Sigma: 0.01}})
	env, _ := Envelope{Kind: EnvelopePseudo, FromSub: 1, ToSub: 2, Payload: pkt}.encode()
	hugeCount := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		le.PutUint32(out[at:], math.MaxUint32)
		return out
	}
	badSide := append([]byte(nil), ms...)
	badSide[4+17] = 2
	badKind := append([]byte(nil), env...)
	badKind[0] = 0

	decoders := map[string]func([]byte) error{
		"packet":       func(b []byte) error { _, err := DecodePacket(b); return err },
		"measurements": func(b []byte) error { _, err := decodeMeasurements(b); return err },
		"envelope":     func(b []byte) error { _, err := decodeEnvelope(b); return err },
	}
	for _, tc := range []struct {
		decoder, name string
		in            []byte
	}{
		{"packet", "empty", nil},
		{"packet", "short header", pkt[:11]},
		{"packet", "truncated", pkt[:len(pkt)-1]},
		{"packet", "trailing byte", append(append([]byte(nil), pkt...), 0)},
		{"packet", "oversized count", hugeCount(pkt, 8)},
		{"measurements", "empty", nil},
		{"measurements", "truncated", ms[:len(ms)-1]},
		{"measurements", "trailing byte", append(append([]byte(nil), ms...), 0)},
		{"measurements", "oversized count", hugeCount(ms, 0)},
		{"measurements", "side byte", badSide},
		{"envelope", "empty", nil},
		{"envelope", "short header", env[:20]},
		{"envelope", "truncated payload", env[:len(env)-1]},
		{"envelope", "trailing byte", append(append([]byte(nil), env...), 0)},
		{"envelope", "oversized length", hugeCount(env, 17)},
		{"envelope", "unknown kind", badKind},
	} {
		if err := decoders[tc.decoder](tc.in); !errors.Is(err, errWire) {
			t.Errorf("%s, %s: err = %v, want errWire", tc.decoder, tc.name, err)
		}
	}

	if _, err := encodeMeasurements([]meas.Measurement{{Kind: 256}}); err == nil {
		t.Error("a kind that does not fit the wire's byte was encoded")
	}
	if _, err := parseSubRequest(encodeSubRequest(9), 9); err == nil {
		t.Error("data request past the last subsystem accepted")
	}
	if _, err := parseSubRequest([]byte("sub:1"), 9); err == nil {
		t.Error("data request of the wrong size accepted")
	}
	if si, err := parseSubRequest(encodeSubRequest(8), 9); err != nil || si != 8 {
		t.Errorf("data request round trip: %d, %v", si, err)
	}
}

// The fuzz targets share one contract: a decoder never panics, and what it
// accepts is canonical — it re-encodes to the very bytes it came from, so
// no two frames mean the same thing and no byte of a frame goes unread.

func FuzzDecodePacket(f *testing.F) {
	whole, _ := EncodePacket(PseudoPacket{FromSub: -1, States: []BusState{{BusID: -7, Vm: math.NaN(), Va: 0.1}, {BusID: 30, Vm: 1.02, Va: -0.2}}})
	f.Add(whole)
	f.Add(whole[:len(whole)-5])                        // truncated
	f.Add(append(append([]byte(nil), whole...), 1, 2)) // trailing bytes
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePacket(b)
		if err != nil {
			return
		}
		if again, err := EncodePacket(p); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-encodes to %x (%v)", b, again, err)
		}
	})
}

func FuzzDecodeMeasurements(f *testing.F) {
	whole, _ := encodeMeasurements([]meas.Measurement{
		{Kind: meas.Vmag, Bus: 12, Value: 1.01, Sigma: 0.004},
		{Kind: meas.Qflow, Branch: 41, FromSide: true, Value: -0.3, Sigma: 0.008},
	})
	f.Add(whole)
	f.Add(whole[:len(whole)-1])
	f.Add(append(append([]byte(nil), whole...), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ms, err := decodeMeasurements(b)
		if err != nil {
			return
		}
		if again, err := encodeMeasurements(ms); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-encodes to %x (%v)", b, again, err)
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	whole, _ := Envelope{Kind: EnvelopeMigrate, FromSub: 4, ToSub: 4, Payload: []byte("raw")}.encode()
	f.Add(whole)
	f.Add(whole[:len(whole)-1])
	f.Add(append(append([]byte(nil), whole...), 0))
	f.Add(whole[:envelopeHeaderSize-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		if again, err := e.encode(); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-encodes to %x (%v)", b, again, err)
		}
	})
}
