package sparse

import "math"

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("sparse: Axpy length mismatch")
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// CopyVec returns a fresh copy of v.
func CopyVec(v []float64) []float64 { return append([]float64(nil), v...) }

// ScaledDriftInf returns the scaled ∞-norm drift of x from a reference
// state xref: maxᵢ |xᵢ − xrefᵢ| / (1 + |xrefᵢ|). Per-unit voltage
// magnitudes and radian angles are both O(1), so the +1 denominator keeps
// the scaling meaningful for entries near zero without ever inflating the
// drift. Mismatched lengths report +Inf — a layout change is maximal drift,
// so gated callers always refresh.
func ScaledDriftInf(x, xref []float64) float64 {
	if len(x) != len(xref) {
		return math.Inf(1)
	}
	d := 0.0
	for i, v := range x {
		if s := math.Abs(v-xref[i]) / (1 + math.Abs(xref[i])); s > d {
			d = s
		}
	}
	return d
}

// EqualVec reports whether a and b hold bitwise-identical values (including
// length). NaN entries compare unequal, which is the conservative answer
// for cache-validity checks.
func EqualVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("sparse: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}
