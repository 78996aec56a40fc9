package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ldlOracle is the factor's numeric half as it was written before L's row
// indices became int32 and the division by D moved into the backward sweep:
// the reference LDLFactor.Refresh and Apply must equal bit for bit. It runs
// on a factor's analysis, with a []int copy of L's row indices and values
// and scratch of its own.
type ldlOracle struct {
	f                  *LDLFactor
	lRow               []int
	lVal, d, y, w      []float64
	pattern, flag, lnz []int
}

func newLDLOracle(f *LDLFactor) *ldlOracle {
	o := &ldlOracle{
		f: f, lRow: make([]int, len(f.lRow)), lVal: make([]float64, len(f.lVal)),
		d: make([]float64, f.n), y: make([]float64, f.n), w: make([]float64, f.n),
		pattern: make([]int, f.n), flag: make([]int, f.n), lnz: make([]int, f.n),
	}
	for p, i := range f.lRow {
		o.lRow[p] = int(i)
	}
	return o
}

func (o *ldlOracle) refresh(a *CSR) error {
	f := o.f
	n, y, pattern, flag, lnz := f.n, o.y, o.pattern, o.flag, o.lnz
	for k := 0; k < n; k++ {
		top := n
		flag[k] = k
		lnz[k] = 0
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			i := int(f.upRow[p])
			y[i] += a.Val[f.upSrc[p]]
			depth := 0
			for ; flag[i] != k; i = f.parent[i] {
				pattern[depth] = i
				depth++
				flag[i] = k
			}
			for depth > 0 {
				top--
				depth--
				pattern[top] = pattern[depth]
			}
		}
		akk := a.Val[f.diagSrc[k]]
		dk := akk
		for ; top < n; top++ {
			i := pattern[top]
			yi := y[i]
			y[i] = 0
			end := f.lPtr[i] + lnz[i]
			for p := f.lPtr[i]; p < end; p++ {
				y[o.lRow[p]] -= o.lVal[p] * yi
			}
			lki := yi / o.d[i]
			dk -= lki * yi
			o.lVal[end] = lki
			lnz[i]++
		}
		if !(dk > ldlPivotRelFloor*math.Abs(akk)) {
			return ErrNotSPD
		}
		o.d[k] = dk
	}
	return nil
}

func (o *ldlOracle) apply(z, r []float64) {
	f, w := o.f, o.w
	for k, i := range f.perm {
		w[k] = r[i]
	}
	for j := 0; j < f.n; j++ {
		wj := w[j]
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			w[o.lRow[p]] -= o.lVal[p] * wj
		}
	}
	for j, dj := range o.d {
		w[j] /= dj
	}
	for j := f.n - 1; j >= 0; j-- {
		wj := w[j]
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			wj -= o.lVal[p] * w[o.lRow[p]]
		}
		w[j] = wj
	}
	for k, i := range f.perm {
		z[i] = w[k]
	}
}

// ldlMatchesOracle analyzes a, factors it and solves for r with the oracle,
// with the column-at-a-time kernels (scalarRefresh, scalarApply) and with
// LDLFactor — serially and pooled at 1, 2 and 4 workers — on the same
// analysis, and reports the first L, D or solution entry whose bits differ
// from the oracle's.
func ldlMatchesOracle(a *CSR, r []float64) error {
	f, err := AnalyzeLDL(a)
	if err != nil {
		return err
	}
	o := newLDLOracle(f)
	if err := o.refresh(a); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := make([]float64, a.Rows)
	o.apply(want, r)
	same := func(who string, c *LDLFactor, got []float64) error {
		for _, v := range []struct {
			what      string
			got, want []float64
		}{{"L", c.lVal, o.lVal}, {"D", c.d, o.d}, {"solution", got, want}} {
			for i := range v.want {
				if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
					return fmt.Errorf("%s: %s[%d] = %v, oracle %v", who, v.what, i, v.got[i], v.want[i])
				}
			}
		}
		return nil
	}
	got := make([]float64, a.Rows)
	scalar := f.SharePattern()
	if err := scalarRefresh(scalar, a); err != nil {
		return fmt.Errorf("column at a time: %w", err)
	}
	scalarApply(scalar, got, r)
	if err := same("column at a time", scalar, got); err != nil {
		return err
	}
	for _, workers := range []int{0, 1, 2, 4} {
		c, who := f.SharePattern(), "serial"
		if workers == 0 {
			err = c.Refresh(a)
		} else {
			who = fmt.Sprintf("%d workers", workers)
			pool := NewPool(workers)
			err = c.RefreshPool(a, pool)
			pool.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		c.Apply(got, r)
		if err := same(who, c, got); err != nil {
			return err
		}
	}
	return nil
}

// scalarRow is LDLFactor.row as it was before it took L's column pairs
// together: every column of the recorded order on its own. It is the
// oracle the paired row kernel must equal bit for bit.
func scalarRow(f *LDLFactor, val []float64, k int) *PivotError {
	y, lnz := f.y, f.lnz
	lPtr, lRow, lVal := f.lPtr, f.lRow, f.lVal
	for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
		y[f.upRow[p]] += val[f.upSrc[p]]
	}
	lnz[k] = 0
	akk := val[f.diagSrc[k]]
	dk := akk
	for _, i := range f.lRowCol[f.lRowPtr[k]:f.lRowPtr[k+1]] {
		yi := y[i]
		y[i] = 0
		lo, end := lPtr[i], lPtr[i]+lnz[i]
		rows := lRow[lo:end]
		vals := lVal[lo:end][:len(rows)]
		for p, r := range rows {
			y[r] -= vals[p] * yi
		}
		lki := yi / f.d[i]
		dk -= lki * yi
		lVal[end] = lki
		lnz[i]++
	}
	if !(dk > ldlPivotRelFloor*math.Abs(akk)) {
		return &PivotError{State: f.perm[k], Pivot: dk, Diag: akk}
	}
	f.d[k] = dk
	return nil
}

// scalarRefresh refactors f from a serially with scalarRow.
func scalarRefresh(f *LDLFactor, a *CSR) error {
	if err := f.check(a); err != nil {
		return err
	}
	for k := 0; k < f.n; k++ {
		if pe := scalarRow(f, a.Val, k); pe != nil {
			return pe
		}
	}
	return nil
}

// scalarApply is LDLFactor.Apply as it was before its forward sweep took
// L's column pairs together: the oracle of the paired sweep.
func scalarApply(f *LDLFactor, z, r []float64) {
	n := f.n
	w, d, lPtr := f.w[:n], f.d[:n], f.lPtr[:n+1]
	for k, o := range f.perm {
		w[k] = r[o]
	}
	for j := 0; j < n; j++ {
		lo, hi := lPtr[j], lPtr[j+1]
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		wj := w[j]
		for p, i := range rows {
			w[i] -= vals[p] * wj
		}
	}
	for j := n - 1; j >= 0; j-- {
		lo, hi := lPtr[j], lPtr[j+1]
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		wj := w[j] / d[j]
		for p, i := range rows {
			wj -= vals[p] * w[i]
		}
		w[j] = wj
	}
	for k, o := range f.perm {
		z[o] = w[k]
	}
}

// pairShares replays the pairing decisions of the row kernel and the
// forward sweep on f's analysis: the share of L's entries the row kernel
// solves for in pairs, and the share of L's columns the forward sweep takes
// in pairs.
func pairShares(f *LDLFactor) (rowKernel, sweep float64) {
	inRows, inSweep := 0, 0
	for k := 0; k < f.n; k++ {
		cols := f.lRowCol[f.lRowPtr[k]:f.lRowPtr[k+1]]
		for t := 0; t < len(cols); t++ {
			if f.takesPair(cols, t) {
				inRows += 2
				t++
			}
		}
	}
	for j := 0; j < f.n; j++ {
		if f.pair[j] != 0 {
			inSweep += 2
			j++
		}
	}
	return float64(inRows) / float64(max(len(f.lRowCol), 1)), float64(inSweep) / float64(max(f.n, 1))
}

// TestLDLMatchesOracle: Refresh and Apply are bitwise the oracle's on random
// SPD and gain-shaped patterns, on a gain whose rows are stored shuffled, and
// on a mesh; the estimator's own gains are in ldl_gain_test.go.
func TestLDLMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := map[string]*CSR{
		"spd-1":   randomSPD(rng, 1),
		"mesh":    meshMatrix(14, 11),
		"shuffle": shuffleRows(rng, gainFixture(rng, 200, 320)),
	}
	for k := 0; k < 8; k++ {
		n := 5 + rng.Intn(200)
		cases[fmt.Sprintf("spd-%d", n)] = randomSPD(rng, n)
		cases[fmt.Sprintf("gain-%d", n)] = gainFixture(rng, n, n+rng.Intn(2*n))
		cases[fmt.Sprintf("bus-gain-%d", n)] = busGainFixture(rng, n, n+rng.Intn(2*n))
	}
	for name, a := range cases {
		r := make([]float64, a.Rows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		if err := ldlMatchesOracle(a, r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if strings.HasPrefix(name, "bus-gain") {
			f, err := AnalyzeLDL(a)
			if err != nil {
				t.Fatal(err)
			}
			if rows, sweep := pairShares(f); rows < 0.5 || sweep < 0.5 {
				t.Errorf("%s: pairs take %.2f of L's entries in the row kernel and %.2f of its columns in the forward sweep, want most", name, rows, sweep)
			}
		}
	}
}

// busGainFixture is gainFixture on buses of two states each: the two rows
// on top for each bus hold both its states (full rank: each row's own state
// dominates), and every coupling row holds both states of each bus it
// meets, so the two rows of G of a bus share one pattern, as a bus's θ and
// V rows do, and L's columns come in pairs.
func busGainFixture(rng *rand.Rand, buses, extra int) *CSR {
	n := 2 * buses
	coo := NewCOO(n+extra, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		coo.Add(i, i^1, rng.NormFloat64()/4)
	}
	for r := 0; r < extra; r++ {
		for d := 2 + rng.Intn(3); d > 0; d-- {
			b := rng.Intn(buses)
			coo.Add(n+r, 2*b, rng.NormFloat64())
			coo.Add(n+r, 2*b+1, rng.NormFloat64())
		}
	}
	h := coo.ToCSR()
	w := make([]float64, h.Rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
		if i%7 == 0 {
			w[i] *= 1e6
		}
	}
	return Gain(h, w)
}

// gainFixture is G = HᵀWH of a measurement-Jacobian-shaped H — a scaled
// identity on top (full column rank, positive diagonal) plus random
// coupling rows — with weights spread over six decades, the PMU/SCADA mix
// that stresses conditioning.
func gainFixture(rng *rand.Rand, n, extra int) *CSR {
	coo := NewCOO(n+extra, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
	}
	for r := 0; r < extra; r++ {
		deg := 2 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			coo.Add(n+r, rng.Intn(n), rng.NormFloat64())
		}
	}
	h := coo.ToCSR()
	w := make([]float64, h.Rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
		if i%7 == 0 {
			w[i] *= 1e6
		}
	}
	return Gain(h, w)
}

// TestLDLSolveMatchesDense: one Apply of a fresh factor is a direct solve,
// checked against dense LU on random SPD and gain-shaped matrices.
func TestLDLSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cases := map[string]*CSR{
		"spd-1":     randomSPD(rng, 1),
		"spd-40":    randomSPD(rng, 40),
		"spd-150":   randomSPD(rng, 150),
		"gain-60":   gainFixture(rng, 60, 90),
		"gain-300":  gainFixture(rng, 300, 500),
		"tridiag":   pathMatrix([]int{0, 1, 2, 3, 4, 5, 6, 7}),
		"scrambled": pathMatrix([]int{3, 7, 0, 5, 1, 6, 2, 4}),
		"mesh":      meshMatrix(12, 9),
	}
	for name, a := range cases {
		f, err := NewLDL(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(a.ToDense(), b)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		got := make([]float64, a.Rows)
		f.Apply(got, b)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d] = %g, dense %g", name, i, got[i], want[i])
			}
		}
		res, err := CG(a, b, CGOptions{Tol: 1e-10, Precond: f})
		if err != nil || res.Iterations > 2 {
			t.Fatalf("%s: CG on a fresh factor: %d iterations, err %v", name, res.Iterations, err)
		}
	}
}

// TestLDLUnsortedRows: the analysis counts and places the same lower-triangle
// entries whatever order a row stores them in. Stopping the placement at the
// first column ≥ i left the entries after it counted but never placed, and
// the factor silently wrong: this 3×3 solved to (1.39, 0.44, 1.28).
func TestLDLUnsortedRows(t *testing.T) {
	// [[4 1 1] [1 3 0] [1 0 2]], row 0 stored as columns (2, 0, 1) and row 2
	// as (2, 0); the right-hand side of x = (1, 1, 1).
	a := &CSR{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 3, 5, 7},
		ColIdx: []int{2, 0, 1, 0, 1, 2, 0},
		Val:    []float64{1, 4, 1, 1, 3, 2, 1},
	}
	f, err := NewLDL(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.Apply(x, []float64{6, 4, 3})
	for i, v := range x {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("x = %v, want (1, 1, 1): x[%d] is off by %.3g", x, i, v-1)
		}
	}

	// Shuffled rows of larger matrices factor to the sorted matrix's factor:
	// same ordering, same fill, the same solution up to the order the sums run in.
	rng := rand.New(rand.NewSource(63))
	for name, m := range map[string]*CSR{"spd-80": randomSPD(rng, 80), "gain-150": gainFixture(rng, 150, 240), "mesh": meshMatrix(8, 6)} {
		sorted, err := NewLDL(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shuffled, err := NewLDL(shuffleRows(rng, m))
		if err != nil {
			t.Fatalf("%s, shuffled: %v", name, err)
		}
		if !slices.Equal(sorted.perm, shuffled.perm) || sorted.FactorNNZ() != shuffled.FactorNNZ() {
			t.Fatalf("%s: shuffling the rows changed the ordering or the fill (%d → %d)", name, sorted.FactorNNZ(), shuffled.FactorNNZ())
		}
		b := make([]float64, m.Rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, got := make([]float64, m.Rows), make([]float64, m.Rows)
		sorted.Apply(want, b)
		shuffled.Apply(got, b)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d] = %g from shuffled rows, %g from sorted", name, i, got[i], want[i])
			}
		}
	}
}

// meshMatrix is the shifted Laplacian of an nx×ny grid graph numbered row
// by row: SPD, and near-planar like a transmission network.
func meshMatrix(nx, ny int) *CSR {
	n := nx * ny
	coo := NewCOO(n, n)
	edge := func(u, v int) {
		coo.Add(u, v, -1)
		coo.Add(v, u, -1)
		coo.Add(u, u, 1)
		coo.Add(v, v, 1)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			u := y*nx + x
			coo.Add(u, u, 0.01)
			if x+1 < nx {
				edge(u, u+1)
			}
			if y+1 < ny {
				edge(u, u+nx)
			}
		}
	}
	return coo.ToCSR()
}

// TestLDLFillStaysSparse: on a near-planar pattern the factor's own
// ordering keeps the fill to a small multiple of the matrix's lower
// triangle; the row-by-row numbering of the same mesh fills a full band,
// nx entries per column.
func TestLDLFillStaysSparse(t *testing.T) {
	const nx, ny = 30, 30
	a := meshMatrix(nx, ny)
	f, err := NewLDL(a)
	if err != nil {
		t.Fatal(err)
	}
	lower := (a.NNZ() - a.Rows) / 2
	if f.FactorNNZ() < lower {
		t.Fatalf("factor has %d off-diagonals, fewer than the matrix's %d", f.FactorNNZ(), lower)
	}
	if band := nx * (a.Rows - nx); f.FactorNNZ() > band/2 {
		t.Fatalf("factor has %d off-diagonals against %d in the matrix and %d in the natural-order band: the ordering is not reducing fill",
			f.FactorNNZ(), lower, band)
	}
}

func TestLDLRefreshRejectsChangedPattern(t *testing.T) {
	f, err := NewLDL(csrFromDense([][]float64{
		{4, 1, 0},
		{1, 4, 1},
		{0, 1, 4},
	}))
	if err != nil {
		t.Fatal(err)
	}
	coo := NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 4)
	}
	coo.Add(0, 2, 1)
	coo.Add(2, 0, 1)
	if err := f.Refresh(coo.ToCSR()); err == nil || errors.Is(err, ErrNotSPD) {
		t.Fatalf("refresh on a different pattern: got %v, want a pattern error", err)
	}
	if err := f.Refresh(randomSPD(rand.New(rand.NewSource(1)), 4)); err == nil {
		t.Fatal("refresh on a different dimension accepted")
	}
	coo = NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := AnalyzeLDL(coo.ToCSR()); err == nil {
		t.Fatal("missing diagonal accepted")
	}
}

// TestLDLBreakdownLeavesFactorReusable: semidefinite, indefinite and NaN
// inputs all return ErrNotSPD, and the same factor then refactors a good
// matrix bitwise as a factor that never saw the bad one.
func TestLDLBreakdownLeavesFactorReusable(t *testing.T) {
	good := csrFromDense([][]float64{
		{2, -1, 0, -1},
		{-1, 3, -1, 0},
		{0, -1, 2, -1},
		{-1, 0, -1, 3},
	})
	bad := map[string]*CSR{
		// A ring Laplacian: every row sums to zero, rank n−1.
		"semidefinite": csrFromDense([][]float64{
			{2, -1, 0, -1},
			{-1, 2, -1, 0},
			{0, -1, 2, -1},
			{-1, 0, -1, 2},
		}),
		"indefinite": csrFromDense([][]float64{
			{2, -1, 0, -1},
			{-1, -3, -1, 0},
			{0, -1, 2, -1},
			{-1, 0, -1, 3},
		}),
		"nan": csrFromDense([][]float64{
			{2, -1, 0, -1},
			{-1, math.NaN(), -1, 0},
			{0, -1, 2, -1},
			{-1, 0, -1, 3},
		}),
	}
	clean, err := NewLDL(good)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, -2, 3, -4}
	want := make([]float64, 4)
	clean.Apply(want, r)
	for name, m := range bad {
		if _, err := NewLDL(m); !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%s: NewLDL: got %v, want ErrNotSPD", name, err)
		}
		f, err := NewLDL(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Refresh(m); !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%s: Refresh: got %v, want ErrNotSPD", name, err)
		}
		for i, v := range f.y {
			if v != 0 {
				t.Fatalf("%s: scratch y[%d] = %g after breakdown, want 0", name, i, v)
			}
		}
		if err := f.Refresh(good); err != nil {
			t.Fatalf("%s: refactor after breakdown: %v", name, err)
		}
		got := make([]float64, 4)
		f.Apply(got, r)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: z[%d] = %v after recovery, clean factor %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestLDLBreakdownNamesItsState: a breakdown is a *PivotError naming the
// state, in the matrix's own order, whose pivot vanished — and still
// ErrNotSPD. A gain whose every row touching one state carries zero weight
// has an all-zero column there, so that state's pivot is exactly zero; in a
// singular 3×3 whose first two states are one state twice, the pivot
// vanishes at whichever of the two the ordering eliminates second.
func TestLDLBreakdownNamesItsState(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n, dead = 60, 17
	coo := NewCOO(n+90, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
	}
	for r := 0; r < 90; r++ {
		for k := 0; k < 3; k++ {
			coo.Add(n+r, rng.Intn(n), rng.NormFloat64())
		}
	}
	h := coo.ToCSR()
	w := make([]float64, h.Rows)
	for m := range w {
		w[m] = 0.5 + rng.Float64()
		if slices.Contains(h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]], dead) {
			w[m] = 0
		}
	}
	singular := csrFromDense([][]float64{
		{1, 1, 0},
		{1, 1, 0},
		{0, 0, 3},
	})
	for name, c := range map[string]struct {
		a     *CSR
		state func(f *LDLFactor) int
		diag  float64
	}{
		"zero-weight column": {Gain(h, w), func(*LDLFactor) int { return dead }, 0},
		"singular 3x3": {singular, func(f *LDLFactor) int {
			return f.perm[max(slices.Index(f.perm, 0), slices.Index(f.perm, 1))]
		}, 1},
	} {
		f, err := AnalyzeLDL(c.a)
		if err != nil {
			t.Fatal(err)
		}
		err = f.Refresh(c.a)
		var pe *PivotError
		if !errors.As(err, &pe) || !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%s: Refresh returned %v, want a *PivotError that is ErrNotSPD", name, err)
		}
		if want := c.state(f); pe.State != want || pe.Pivot != 0 || pe.Diag != c.diag {
			t.Errorf("%s: %+v, want state %d, pivot 0, diagonal %g", name, *pe, want, c.diag)
		}
	}
}

func TestLDLRefreshApplyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := gainFixture(rng, 120, 200)
	f, err := NewLDL(a)
	if err != nil {
		t.Fatal(err)
	}
	z, r := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := f.Refresh(a); err != nil {
			t.Fatal(err)
		}
		f.Apply(z, r)
	}); allocs != 0 {
		t.Fatalf("Refresh+Apply allocated %v times per run, want 0", allocs)
	}
}

// walkAnalysis is the symbolic analysis as it was built before L's pattern
// came off the minimum-degree elimination, kept as the oracle AnalyzeLDL
// must equal array for array: MinDegree's ordering, the permuted upper
// triangle, then a walk up the elimination tree from every upper-triangle
// entry to count each column of L, and the same walk again to place its
// rows, and once more to list each row of L in the order the walking refresh
// solves for it. A column is paired where it is, as a set, its first row
// j+1 and column j+1. With parts > 1 it also splits the forest as
// AnalyzeLDLPool would.
func walkAnalysis(a *CSR, parts int) (*LDLFactor, error) {
	n := a.Rows
	f := &LDLFactor{
		n: n, perm: MinDegree(a),
		upPtr: make([]int, n+1), diagSrc: make([]int32, n), parent: make([]int, n), lPtr: make([]int, n+1),
		d: make([]float64, n), y: make([]float64, n), w: make([]float64, n), lnz: make([]int, n),
	}
	flag := make([]int, n)
	inv := InversePerm(f.perm)
	for i := range f.diagSrc {
		f.diagSrc[i] = -1
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColIdx[k]; {
			case j == i:
				f.diagSrc[inv[i]] = int32(k)
			case j < i:
				f.upPtr[max(inv[i], inv[j])+1]++
			}
		}
		if f.diagSrc[inv[i]] < 0 {
			return nil, fmt.Errorf("missing diagonal at row %d", i)
		}
	}
	for k := 0; k < n; k++ {
		f.upPtr[k+1] += f.upPtr[k]
	}
	f.upRow, f.upSrc = make([]int32, f.upPtr[n]), make([]int32, f.upPtr[n])
	next := slices.Clone(f.upPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] >= i {
				continue
			}
			pi, pj := inv[i], inv[a.ColIdx[k]]
			p := next[max(pi, pj)]
			next[max(pi, pj)]++
			f.upRow[p], f.upSrc[p] = int32(min(pi, pj)), int32(k)
		}
	}
	// Row k of L is the union of the tree paths from each upper-triangle
	// entry of column k towards k.
	for k := 0; k < n; k++ {
		f.parent[k] = -1
		flag[k] = k
		f.lnz[k] = 0
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			for i := int(f.upRow[p]); flag[i] != k; i = f.parent[i] {
				if f.parent[i] < 0 {
					f.parent[i] = k
				}
				f.lnz[i]++
				flag[i] = k
			}
		}
	}
	for k := 0; k < n; k++ {
		f.lPtr[k+1] = f.lPtr[k] + f.lnz[k]
	}
	f.lRow, f.lVal = make([]int32, f.lPtr[n]), make([]float64, f.lPtr[n])
	for k := 0; k < n; k++ {
		flag[k] = -1
		f.lnz[k] = 0
	}
	for k := 0; k < n; k++ {
		flag[k] = k
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			for i := int(f.upRow[p]); flag[i] != k; i = f.parent[i] {
				f.lRow[f.lPtr[i]+f.lnz[i]] = int32(k)
				f.lnz[i]++
				flag[i] = k
			}
		}
	}
	f.pair = make([]int32, n)
	for j := 0; j+1 < n; j++ {
		col, next := f.lRow[f.lPtr[j]:f.lPtr[j+1]], f.lRow[f.lPtr[j+1]:f.lPtr[j+2]]
		if len(col) > 0 && col[0] == int32(j+1) && slices.Equal(col[1:], next) {
			f.pair[j] = 1
		}
	}
	// Row k's pattern in the order the walking refresh solves for it.
	f.lRowPtr = make([]int, n+1)
	pattern := make([]int, n)
	for k := range flag {
		flag[k] = -1
	}
	for k := 0; k < n; k++ {
		for _, i := range pattern[ereach(f, k, flag, pattern):] {
			f.lRowCol = append(f.lRowCol, int32(i))
		}
		f.lRowPtr[k+1] = len(f.lRowCol)
	}
	if parts > 1 {
		f.split(parts, make([]int, n), make([]int, n))
	}
	return f, nil
}

// ereach is the elimination-tree walk LDLFactor's row kernel made on every
// refresh before the analysis recorded its result: it collects the pattern
// of row k of L in topological order at pattern[top:], pattern having room
// for every column below k, and returns top. flag must hold no k.
func ereach(f *LDLFactor, k int, flag, pattern []int) int {
	top := len(pattern)
	flag[k] = k
	for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
		i := int(f.upRow[p])
		depth := 0
		for ; flag[i] != k; i = f.parent[i] {
			pattern[depth] = i
			depth++
			flag[i] = k
		}
		for depth > 0 {
			top--
			depth--
			pattern[top] = pattern[depth]
		}
	}
	return top
}

// walkingRow is LDLFactor.row as it was before it replayed a recorded
// pattern: the scatter of upper column k, the walk, then the same solve (the
// walk used to run inside the scatter loop, which changes nothing: the
// scatter writes distinct entries of an all-zero y). It is the oracle the
// replaying kernel must equal bit for bit, L and D alike.
func walkingRow(f *LDLFactor, val []float64, k int, flag, pattern []int) *PivotError {
	y, lnz := f.y, f.lnz
	lPtr, lRow, lVal := f.lPtr, f.lRow, f.lVal
	for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
		y[f.upRow[p]] += val[f.upSrc[p]]
	}
	top := ereach(f, k, flag, pattern)
	lnz[k] = 0
	akk := val[f.diagSrc[k]]
	dk := akk
	for _, i := range pattern[top:] {
		yi := y[i]
		y[i] = 0
		lo, end := lPtr[i], lPtr[i]+lnz[i]
		rows := lRow[lo:end]
		vals := lVal[lo:end][:len(rows)]
		for p, r := range rows {
			y[r] -= vals[p] * yi
		}
		lki := yi / f.d[i]
		dk -= lki * yi
		lVal[end] = lki
		lnz[i]++
	}
	if !(dk > ldlPivotRelFloor*math.Abs(akk)) {
		return &PivotError{State: f.perm[k], Pivot: dk, Diag: akk}
	}
	f.d[k] = dk
	return nil
}

// walkingRefresh refactors f from a serially with walkingRow, on scratch of
// its own, into f's L and D.
func walkingRefresh(f *LDLFactor, a *CSR) error {
	flag, pattern := make([]int, f.n), make([]int, f.n)
	for k := range flag {
		flag[k] = -1
	}
	for k := 0; k < f.n; k++ {
		if pe := walkingRow(f, a.Val, k, flag, pattern); pe != nil {
			return pe
		}
	}
	return nil
}

// analysisMatchesOracle analyzes a on p and reports the first array of the
// analysis that differs from walkAnalysis's for p's part count: the ordering,
// the permuted upper triangle, the elimination tree, L's pattern by columns,
// its column pairs, its rows in the walk's order and the split of the forest.
func analysisMatchesOracle(a *CSR, p *Pool) error {
	f, err := AnalyzeLDLPool(a, p)
	if err != nil {
		return err
	}
	parts := 1
	if f.splitParts > 0 {
		parts = f.splitParts
	}
	o, err := walkAnalysis(a, parts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, c := range []struct {
		what      string
		got, want []int
	}{
		{"perm", f.perm, o.perm}, {"upPtr", f.upPtr, o.upPtr},
		{"parent", f.parent, o.parent}, {"lPtr", f.lPtr, o.lPtr}, {"lRowPtr", f.lRowPtr, o.lRowPtr},
		{"splitPtr", f.splitPtr, o.splitPtr},
	} {
		if !slices.Equal(c.got, c.want) {
			return fmt.Errorf("%s differs from the walk oracle's", c.what)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []int32
	}{
		{"upRow", f.upRow, o.upRow}, {"upSrc", f.upSrc, o.upSrc}, {"diagSrc", f.diagSrc, o.diagSrc}, {"lRow", f.lRow, o.lRow},
		{"pair", f.pair, o.pair}, {"lRowCol", f.lRowCol, o.lRowCol}, {"splitCols", f.splitCols, o.splitCols},
	} {
		if !slices.Equal(c.got, c.want) {
			return fmt.Errorf("%s differs from the walk oracle's", c.what)
		}
	}
	return nil
}

// FuzzAnalyzeLDL turns bytes into a small pattern with a full diagonal.
// Symmetric, its analysis must equal the walk oracle's array for array, the
// recorded row patterns being the sequence the walk visits, and its factor
// and solve the oracles' bit for bit. Made one-sided or given a repeated
// entry, the analysis must not panic: it either fails, or its factor solves
// the matrix Refresh reads — the lower triangle mirrored, repeats summed —
// as the dense solve does. With mode&4 every vertex of the drawn graph
// becomes one to three vertices with one closed neighborhood, as a bus's θ
// and V states are in a gain matrix, so L's columns come in pairs and
// triples.
func FuzzAnalyzeLDL(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(7), uint8(0), []byte{0, 1, 1, 2, 0, 2, 3, 4, 4, 5, 3, 5})
	f.Add(uint8(12), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 11, 3, 9, 1, 1})
	f.Add(uint8(9), uint8(2), []byte{0, 4, 1, 4, 2, 3, 3, 0, 8, 1})
	f.Add(uint8(40), uint8(3), []byte("a gain matrix is a two-hop graph of the network"))
	f.Add(uint8(11), uint8(4), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 7, 8, 9, 10})
	f.Add(uint8(30), uint8(5), []byte("buses of two states each, and a few of three"))
	f.Add(uint8(16), uint8(6), []byte{1, 5, 2, 7, 3, 9, 0, 15, 4, 11})
	f.Fuzz(func(t *testing.T, size, mode uint8, data []byte) {
		n := int(size) % 40
		var edges [][2]int
		for k := 0; n > 0 && k+1 < len(data); k += 2 {
			if u, v := int(data[k])%n, int(data[k+1])%n; u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		grouped := false // some vertex has a copy
		if mode&4 != 0 && len(data) > 0 {
			// Vertex v becomes copies first[v] … first[v+1]−1, a clique, each
			// joined to every copy of v's neighbors.
			first := make([]int, n+1)
			for v := 0; v < n; v++ {
				width := 1 + int(data[v%len(data)]>>2)%3
				first[v+1] = first[v] + width
				grouped = grouped || width > 1
			}
			var dup [][2]int
			for v := 0; v < n; v++ {
				for a := first[v]; a < first[v+1]; a++ {
					for b := a + 1; b < first[v+1]; b++ {
						dup = append(dup, [2]int{a, b})
					}
				}
			}
			for _, e := range edges {
				for a := first[e[0]]; a < first[e[0]+1]; a++ {
					for b := first[e[1]]; b < first[e[1]+1]; b++ {
						dup = append(dup, [2]int{a, b})
					}
				}
			}
			n, edges = first[n], dup
		}
		coo := NewCOO(n, n)
		dense := NewDense(n, n) // the matrix Refresh reads
		add := func(i, j int, v float64) {
			coo.Add(i, j, v)
			if j <= i {
				dense.AddAt(i, j, v)
				dense.Set(j, i, dense.At(i, j))
			}
		}
		deg := make([]float64, n)
		for _, e := range edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		for i := 0; i < n; i++ {
			add(i, i, 2*deg[i]+1) // diagonally dominant, whatever is mirrored
		}
		for k, e := range edges {
			v := -1 - float64(k%3)/4
			switch mode % 4 {
			case 0, 1: // symmetric
				add(e[0], e[1], v)
				add(e[1], e[0], v)
			case 2: // one-sided
				add(e[0], e[1], v)
			case 3: // symmetric, every third pair twice
				add(e[0], e[1], v)
				add(e[1], e[0], v)
				if k%3 == 0 {
					add(e[0], e[1], v)
					add(e[1], e[0], v)
				}
			}
		}
		a := coo.ToCSR() // sums repeats and sorts rows
		if mode%4 >= 2 {
			a = rawCSR(coo)
		}
		if mode%2 == 1 {
			a = shuffleRows(rand.New(rand.NewSource(int64(len(data)))), a)
		}
		if mode%4 <= 1 {
			if err := analysisMatchesOracle(a, nil); err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i%5) - 2
			}
			if err := ldlMatchesOracle(a, b); err != nil {
				t.Fatal(err)
			}
			if fac, _ := AnalyzeLDL(a); grouped && !slices.Contains(fac.pair, 1) {
				t.Fatal("vertices with one closed neighborhood left no column of L paired")
			}
			return
		}
		fac, err := NewLDL(a)
		if err != nil {
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		want, err := SolveDense(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		fac.Apply(got, b)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("x[%d] = %g, dense solve %g", i, got[i], want[i])
			}
		}
	})
}

// rawCSR lays out the entries of coo row by row as they were added, repeats
// kept apart.
func rawCSR(coo *COO) *CSR {
	a := &CSR{Rows: coo.Rows, Cols: coo.Cols, RowPtr: make([]int, coo.Rows+1)}
	for _, i := range coo.rowIdx {
		a.RowPtr[i+1]++
	}
	for i := 0; i < a.Rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	a.ColIdx, a.Val = make([]int, len(coo.colIdx)), make([]float64, len(coo.val))
	next := slices.Clone(a.RowPtr[:a.Rows])
	for k, i := range coo.rowIdx {
		a.ColIdx[next[i]], a.Val[next[i]] = coo.colIdx[k], coo.val[k]
		next[i]++
	}
	return a
}
