package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// encodeEnvelope is one envelope as a bundle writes it — the header
// encodeBundle appends, then the payload bytes — for the tests that hold
// decodeEnvelope to a round trip and to canonical form.
func encodeEnvelope(e Envelope) []byte {
	b := make([]byte, 0, envelopeHeaderSize+len(e.Payload))
	return append(appendEnvelopeHeader(b, e.Kind, e.FromSub, e.ToSub, len(e.Payload)), e.Payload...)
}

// encodeMeasurements is one measurement set in a buffer of its own.
func encodeMeasurements(ms []meas.Measurement) ([]byte, error) {
	return appendMeasurements(nil, ms)
}

// frameListOf is the frame-list layout over arbitrary bodies, written the
// slow way: what encodeBundle and encodeMeasurementSets must produce around
// theirs.
func frameListOf(frames [][]byte) []byte {
	b := le.AppendUint32(nil, uint32(len(frames)))
	for _, f := range frames {
		b = append(le.AppendUint32(b, uint32(len(f))), f...)
	}
	return b
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
		eb := encodeEnvelope(env)
		if len(eb) != 21+len(pb) {
			t.Fatalf("envelope is %d bytes, want %d", len(eb), 21+len(pb))
		}
		got, err := decodeEnvelope(eb)
		if err != nil || got.Kind != env.Kind || got.FromSub != env.FromSub || got.ToSub != env.ToSub || !bytes.Equal(got.Payload, env.Payload) {
			t.Fatalf("envelope round trip: %+v, %v; want %+v", got, err, env)
		}

		// A bundle of both kinds is the frame list of its envelopes, each
		// the bytes the single encoders produce; the data source's reply is
		// the frame list of its measurement sets.
		k := rng.Intn(4)
		var envs []outEnvelope
		var want, sets [][]byte
		var mss [][]meas.Measurement
		for i := 0; i < k; i++ {
			from, to := randInt(rng), randInt(rng)
			envs = append(envs, outEnvelope{FromSub: from, ToSub: to, Packet: &pkt}, outEnvelope{FromSub: to, ToSub: from, Meas: ms})
			want = append(want,
				encodeEnvelope(Envelope{Kind: EnvelopePseudo, FromSub: from, ToSub: to, Payload: pb}),
				encodeEnvelope(Envelope{Kind: EnvelopeMigrate, FromSub: to, ToSub: from, Payload: mb}))
			mss, sets = append(mss, ms), append(sets, mb)
		}
		bundle, err := encodeBundle(envs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bundle, frameListOf(want)) {
			t.Fatalf("bundle of %d envelopes is not the frame list of their encodings", len(envs))
		}
		frames, err := decodeFrameList(bundle)
		if err != nil || len(frames) != len(want) {
			t.Fatalf("bundle round trip: %d frames, %v; want %d", len(frames), err, len(want))
		}
		for i := range frames {
			if !bytes.Equal(frames[i], want[i]) {
				t.Fatalf("bundle frame %d differs from the envelope it was built from", i)
			}
		}
		reply, err := encodeMeasurementSets(mss)
		if err != nil || !bytes.Equal(reply, frameListOf(sets)) {
			t.Fatalf("reply of %d measurement sets is not the frame list of their encodings (%v)", len(mss), err)
		}

		subs := make([]int, k)
		for i := range subs {
			subs[i] = rng.Intn(9)
		}
		req := encodeSubRequest(subs)
		if len(req) != 4+4*k {
			t.Fatalf("request for %d subsystems is %d bytes, want %d", k, len(req), 4+4*k)
		}
		if got, err := parseSubRequest(req, 9); err != nil || len(got) != k || (k > 0 && !reflect.DeepEqual(got, subs)) {
			t.Fatalf("data request round trip: %v, %v; want %v", got, err, subs)
		}
	}
}

// TestBundleEncodesInOneAllocation: a bundle's size is known before a byte
// of it is written, so encoding k envelopes allocates the bundle and
// nothing else — no per-envelope frame, no growth (the data source's reply
// likewise).
func TestBundleEncodesInOneAllocation(t *testing.T) {
	pkt := PseudoPacket{FromSub: 2, States: make([]BusState, 11)}
	ms := make([]meas.Measurement, 57)
	for k := 1; k <= 9; k += 4 {
		var envs []outEnvelope
		var sets [][]meas.Measurement
		for i := 0; i < k; i++ {
			envs = append(envs, outEnvelope{FromSub: 2, ToSub: i, Packet: &pkt}, outEnvelope{FromSub: i, ToSub: i, Meas: ms})
			sets = append(sets, ms)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := encodeBundle(envs); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("encoding a bundle of %d envelopes allocates %v times, want 1", len(envs), n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := encodeMeasurementSets(sets); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("encoding a reply of %d measurement sets allocates %v times, want 1", k, n)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	pkt, _ := EncodePacket(PseudoPacket{FromSub: 3, States: []BusState{{BusID: 1, Vm: 1, Va: 0}, {BusID: 2, Vm: 1, Va: 0}}})
	ms, _ := encodeMeasurements([]meas.Measurement{{Kind: meas.Pflow, Branch: 7, FromSide: true, Value: 0.5, Sigma: 0.01}})
	env := encodeEnvelope(Envelope{Kind: EnvelopePseudo, FromSub: 1, ToSub: 2, Payload: pkt})
	list := frameListOf([][]byte{env, nil, ms})
	cutLen := append([]byte(nil), list[:4+4+len(env)+2]...) // ends inside frame 1's length
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
		"frame list":   func(b []byte) error { _, err := decodeFrameList(b); return err },
		"data request": func(b []byte) error { _, err := parseSubRequest(b, 9); return err },
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
		{"frame list", "empty", nil},
		{"frame list", "truncated count", list[:3]},
		{"frame list", "ends inside a length", cutLen},
		{"frame list", "length past the end", list[:len(list)-1]},
		{"frame list", "trailing byte", append(append([]byte(nil), list...), 0)},
		{"frame list", "count one short of the frames held", append(le.AppendUint32(nil, 2), list[4:]...)},
		{"frame list", "count one past the frames held", append(le.AppendUint32(nil, 4), list[4:]...)},
		{"frame list", "oversized count", hugeCount(list, 0)},
		{"frame list", "count times four overflows u32", le.AppendUint32(nil, 1<<30)},
		{"frame list", "oversized length", hugeCount(list, 4)},
		{"data request", "empty", nil},
		{"data request", "old text form", []byte("sub:1")},
		{"data request", "truncated", encodeSubRequest([]int{1, 2})[:11]},
		{"data request", "trailing byte", append(encodeSubRequest([]int{1, 2}), 0)},
		{"data request", "oversized count", hugeCount(encodeSubRequest([]int{1, 2}), 0)},
	} {
		if err := decoders[tc.decoder](tc.in); !errors.Is(err, errWire) {
			t.Errorf("%s, %s: err = %v, want errWire", tc.decoder, tc.name, err)
		}
	}

	if _, err := encodeMeasurements([]meas.Measurement{{Kind: 256}}); err == nil {
		t.Error("a kind that does not fit the wire's byte was encoded")
	}
	if _, err := parseSubRequest(encodeSubRequest([]int{8, 9}), 9); err == nil {
		t.Error("data request past the last subsystem accepted")
	}
	if frames, err := decodeFrameList(list); err != nil || len(frames) != 3 || len(frames[1]) != 0 || !bytes.Equal(frames[2], ms) {
		t.Errorf("frame list with an empty body: %d frames, %v", len(frames), err)
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
	whole := encodeEnvelope(Envelope{Kind: EnvelopeMigrate, FromSub: 4, ToSub: 4, Payload: []byte("raw")})
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
		if again := encodeEnvelope(e); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, again)
		}
	})
}

func FuzzDecodeFrameList(f *testing.F) {
	whole := frameListOf([][]byte{[]byte("first"), nil, []byte("third frame")})
	f.Add(whole)
	f.Add(whole[:2])                                // truncated count
	f.Add(whole[:len(whole)-1])                     // last length runs past the end
	f.Add(append(append([]byte(nil), whole...), 0)) // trailing byte
	f.Add(le.AppendUint32(nil, 1<<30))              // n·4 overflows a u32
	f.Add(le.AppendUint32(nil, math.MaxUint32))
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := decodeFrameList(b)
		if err != nil {
			return
		}
		if again := frameListOf(frames); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, again)
		}
	})
}
