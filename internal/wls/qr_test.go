package wls

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// solveQR is the QR oracle's step (legacyEstimate's oracleQR): it
// triangularizes the weighted Jacobian √W·H with Givens rotations, row by
// row, and back-substitutes R·Δx = d. Unlike the normal-equation path it
// never forms HᵀWH, so its conditioning is κ(H) instead of κ(H)² — the
// numerically robust method of Abur & Expósito, ch. 3. R is held as dense
// upper-triangular rows, exact and affordable at test sizes.
func solveQR(h *sparse.CSR, w, r []float64) ([]float64, error) {
	m, n := h.Rows, h.Cols
	if m < n {
		return nil, ErrUnobservable
	}
	// R rows: R[i] stores columns i..n-1. d is the rotated RHS.
	rmat := make([][]float64, n)
	d := make([]float64, n)
	occupied := make([]bool, n)

	row := make([]float64, n)
	for mi := 0; mi < m; mi++ {
		// Scatter √w_i · H_i into the dense work row.
		clear(row)
		sw := math.Sqrt(w[mi])
		first := n
		for k := h.RowPtr[mi]; k < h.RowPtr[mi+1]; k++ {
			c := h.ColIdx[k]
			row[c] = sw * h.Val[k]
			first = min(first, c)
		}
		beta := sw * r[mi]

		for j := first; j < n; j++ {
			if row[j] == 0 {
				continue
			}
			if !occupied[j] {
				// Install the remainder of the row as R row j.
				rmat[j] = append([]float64(nil), row[j:]...)
				d[j] = beta
				occupied[j] = true
				break
			}
			// Givens rotation zeroing row[j] against R[j][j].
			rj := rmat[j]
			rad := math.Hypot(rj[0], row[j])
			c, s := rj[0]/rad, row[j]/rad
			for k := j; k < n; k++ {
				rk, xk := rj[k-j], row[k]
				rj[k-j] = c*rk + s*xk
				row[k] = -s*rk + c*xk
			}
			d[j], beta = c*d[j]+s*beta, -s*d[j]+c*beta
		}
	}

	// Rank check + back substitution.
	for j := 0; j < n; j++ {
		if !occupied[j] || math.Abs(rmat[j][0]) < 1e-12 {
			return nil, fmt.Errorf("%w: zero pivot at state %d in QR", ErrUnobservable, j)
		}
	}
	dx := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		sum := d[j]
		rj := rmat[j]
		for k := j + 1; k < n; k++ {
			sum -= rj[k-j] * dx[k]
		}
		dx[j] = sum / rj[0]
	}
	return dx, nil
}

func TestQRMatchesPCGOnCase30(t *testing.T) {
	n := grid.Case30()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 31)
	got, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := legacyEstimate(mod, Options{}, nil, oracleQR)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.X {
		if math.Abs(got.X[i]-qr.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: default %v vs QR %v", i, got.X[i], qr.X[i])
		}
	}
	if got.PrecondFallbacks != 0 {
		t.Errorf("default path took %d damped steps on an observable system", got.PrecondFallbacks)
	}
}

func TestQREstimatesCase118(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 37)
	res, err := legacyEstimate(mod, Options{}, nil, oracleQR)
	if err != nil {
		t.Fatal(err)
	}
	dvm, dva := maxStateError(res.State, truth)
	if dvm > 0.01 || dva > 0.01 {
		t.Fatalf("QR estimate error Vm=%g Va=%g", dvm, dva)
	}
}

func TestQRDetectsUnobservable(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	var ms []meas.Measurement
	for _, b := range n.Buses {
		ms = append(ms, meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 0.004, Value: 1})
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacyEstimate(mod, Options{}, nil, oracleQR); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
}

// TestQRHandlesExtremeWeights pins why the engine needs no QR path: one
// nearly exact meter on a noisy IEEE-118 frame puts weights up to 1e22
// beside SCADA's 1e4, where squaring the condition number is supposed to
// hurt the normal equations. The default LDLᵀ solve must still land on the
// QR oracle's estimate in as many Gauss–Newton steps, with no factorization
// breakdown and no fresh factor whose substitution needs refining.
func TestQRHandlesExtremeWeights(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	ms, err := meas.Simulate(n, meas.FullPlan().Build(n), truth, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{1e-6, 1e-9, 1e-11} {
		ms[0].Sigma = sigma
		ref := n.SlackIndex()
		mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
		if err != nil {
			t.Fatal(err)
		}
		got, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatalf("σ %g: default: %v", sigma, err)
		}
		want, err := legacyEstimate(mod, Options{}, nil, oracleQR)
		if err != nil {
			t.Fatalf("σ %g: QR oracle: %v", sigma, err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("σ %g: %d Gauss–Newton steps, QR %d", sigma, got.Iterations, want.Iterations)
		}
		requireCleanFactor(t, fmt.Sprintf("σ %g", sigma), mod, got)
		for k := range want.X {
			if d := math.Abs(got.X[k] - want.X[k]); d > 1e-9 {
				t.Fatalf("σ %g: x[%d] = %.12g, QR oracle %.12g (|Δ| = %g)", sigma, k, got.X[k], want.X[k], d)
			}
		}
	}
}

// Property: for random over-determined consistent systems, the Givens
// triangularization solves A·x = b exactly (residual 0 ⇒ x recovered).
func TestSolveQRQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		m := n + 3 + rng.Intn(20)
		coo := sparse.NewCOO(m, n)
		for i := 0; i < m; i++ {
			coo.Add(i, rng.Intn(n), 1+rng.Float64())
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
			coo.Add(i, i%n, 0.5+rng.Float64()) // every column touched
		}
		a := coo.ToCSR()
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		a.MulVec(b, xTrue)
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		x, err := solveQR(a, w, b)
		if err != nil {
			return false
		}
		for i := range xTrue {
			if math.Abs(x[i]-xTrue[i]) > 1e-7*(1+math.Abs(xTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveQRUnderdetermined(t *testing.T) {
	coo := sparse.NewCOO(2, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	if _, err := solveQR(coo.ToCSR(), []float64{1, 1}, []float64{1, 1}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v", err)
	}
}
