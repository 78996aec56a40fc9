package meas

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/sparse"
)

// JacobianPlan is the symbolic half of the measurement Jacobian H(x). The
// sparsity pattern of H is fixed by the network topology and measurement
// set, not by the state, so a plan built once per model lets every
// Gauss-Newton iteration rewrite only H.Val in place — no triplets, no
// sorting, no allocation.
//
// The plan's pattern is the structural pattern of H: entries whose
// derivative happens to vanish at some state are stored as explicit zeros
// rather than dropped.
//
// The plan also owns the state load h(x), H(x) and the gradient share.
// EvalInto, Refresh and GradInto load the state they are handed unless it
// is, bit for bit, the state already loaded under the same reference angle;
// so the EvalInto/Refresh pair of one Gauss–Newton iterate, or a trial
// evaluation followed by the refresh at the accepted trial point, pays for
// unpacking, trigonometry and injections once. Rebind drops the load; a
// changed reference angle (Model.SetRefAngle) or an x edited in place fails
// the comparison.
type JacobianPlan struct {
	mod *Model

	// H is the Jacobian skeleton; Refresh rewrites H.Val in place, and nothing
	// else does: after a GradInto it still holds the last Refresh's values.
	// Callers must treat it as read-only and valid until the next Refresh.
	H *sparse.CSR

	// val is H.Val plus one trailing sink element, and slots maps the
	// kernel's emission order to positions in it: emissions with no column
	// (derivatives with respect to the reference angle) go to the sink.
	val   []float64
	slots []int32

	// cols is the state column of each emission, slots read through
	// H.ColIdx, which GradInto sums through. Only lagged Gauss–Newton steps
	// read it, so the first GradInto builds it — once per pattern: shared is
	// the cell of the plan NewJacobianPlan built, a plan's own or its clone
	// base's, and clones of one base take that first step concurrently.
	cols   atomic.Pointer[[]int32]
	shared *atomic.Pointer[[]int32]

	// st is loaded for state x under reference angle refAngle when loaded is
	// set; trig counts the sines and cosines all loads so far evaluated.
	st       *stateLoad
	x        []float64
	refAngle float64
	loaded   bool
	trig     int

	// flat is h at the flat profile, evaluated by the first FlatObjective
	// and dropped by Rebind; its Angle rows are never read.
	flat []float64
}

// NewJacobianPlan builds the symbolic Jacobian plan: it counts the kernel's
// emissions, then writes H's pattern and the slot map in one pass over the
// measurements, sorting nothing. Every row's sorted columns are known in
// closed form, because x lists the angles (the reference bus's left out)
// before the magnitudes, each in bus order: an injection row holds its
// Y-bus row's angles, then its magnitudes; a flow row its two angles, then
// its two magnitudes, each pair ordered by bus; a Vmag or Angle row one
// column. The slot map follows the kernel's emission order (jacobianLoaded)
// into those positions. The plan stays valid for the model's lifetime
// (topology and measurement locations are immutable after NewModel).
func (mod *Model) NewJacobianPlan() *JacobianPlan {
	k, y, nA := &mod.k, mod.y, mod.nAngles
	m, emissions := len(mod.Meas), 0
	for mi, op := range k.ops {
		switch mod.Meas[mi].Kind {
		case Pinj, Qinj:
			emissions += 2 * (y.RowPtr[op.idx+1] - y.RowPtr[op.idx])
		case Pflow, Qflow:
			emissions += 4
		default:
			emissions++
		}
	}
	rowPtr, colIdx, slots := make([]int, m+1), make([]int, 0, emissions), make([]int32, emissions)
	// put gives emission c the next entry of H, in column col; the reference
	// angle's col is −1, and its slot, the sink, is set once nnz is known.
	put := func(c, col int) {
		slots[c] = -1
		if col >= 0 {
			slots[c] = int32(len(colIdx))
			colIdx = append(colIdx, col)
		}
	}
	c := 0 // the row's first emission
	for mi, op := range k.ops {
		switch i := int(op.idx); mod.Meas[mi].Kind {
		case Vmag:
			put(c, nA+i)
			c++
		case Angle:
			put(c, mod.angPos[i])
			c++
		case Pinj, Qinj:
			// Emission 2q is the angle of the row's q-th bus, 2q+1 its magnitude.
			row := y.ColIdx[y.RowPtr[i]:y.RowPtr[i+1]]
			for q, j := range row {
				put(c+2*q, mod.angPos[j])
			}
			for q, j := range row {
				put(c+2*q+1, nA+j)
			}
			c += 2 * len(row)
		case Pflow, Qflow:
			// Emissions: the angles of f and t, then their magnitudes.
			e := &k.ends[i]
			bus, lo, hi := [2]int{int(e.f), int(e.t)}, 0, 1
			if e.t < e.f {
				lo, hi = 1, 0
			}
			put(c+lo, mod.angPos[bus[lo]])
			put(c+hi, mod.angPos[bus[hi]])
			put(c+2+lo, nA+bus[lo])
			put(c+2+hi, nA+bus[hi])
			c += 4
		}
		rowPtr[mi+1] = len(colIdx)
	}
	nnz := len(colIdx)
	for c, slot := range slots {
		if slot < 0 {
			slots[c] = int32(nnz)
		}
	}
	val := make([]float64, nnz+1)
	pl := &JacobianPlan{
		mod:   mod,
		H:     &sparse.CSR{Rows: m, Cols: mod.NState(), RowPtr: rowPtr, ColIdx: colIdx, Val: val[:nnz:nnz]},
		val:   val,
		slots: slots,
		st:    mod.newStateLoad(),
		x:     make([]float64, mod.NState()),
	}
	pl.shared = &pl.cols
	return pl
}

// columns returns the pattern's emission → column map, building it on first
// use; H.Cols, one past the last state, stands for the sink. Plans racing
// for the first use build the same map and all keep the one that landed.
func (pl *JacobianPlan) columns() []int32 {
	if cols := pl.shared.Load(); cols != nil {
		return *cols
	}
	cols := make([]int32, len(pl.slots))
	for c, slot := range pl.slots {
		if int(slot) == len(pl.H.ColIdx) {
			cols[c] = int32(pl.H.Cols)
		} else {
			cols[c] = int32(pl.H.ColIdx[slot])
		}
	}
	pl.shared.CompareAndSwap(nil, &cols)
	return *pl.shared.Load()
}

// CloneFor returns a plan for view, a WithoutBranch view of the plan's model
// (or that model itself), that shares every index array with pl — H's
// RowPtr and ColIdx, the slot map and the column map — and owns only H.Val,
// its state load and its h at the flat profile, which the view's admittance
// values decide: the pattern is the kernel's and the admittance pattern's,
// which a view shares with its base.
func (pl *JacobianPlan) CloneFor(view *Model) (*JacobianPlan, error) {
	if !sameBacking(view.k.ops, pl.mod.k.ops) || !sameBacking(view.y.ColIdx, pl.mod.y.ColIdx) {
		return nil, fmt.Errorf("meas: JacobianPlan clone for a model that does not share the plan's kernel")
	}
	nnz := pl.H.NNZ()
	val := make([]float64, nnz+1)
	return &JacobianPlan{
		mod:    view,
		H:      &sparse.CSR{Rows: pl.H.Rows, Cols: pl.H.Cols, RowPtr: pl.H.RowPtr, ColIdx: pl.H.ColIdx, Val: val[:nnz:nnz]},
		val:    val,
		slots:  pl.slots,
		shared: pl.shared,
		st:     view.newStateLoad(),
		x:      make([]float64, view.NState()),
	}, nil
}

// sameBacking reports whether two slices are the same stretch of one array.
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Rebind points the plan at a structurally identical model (same network
// admittances and measurement set up to values), so a rebuilt model — a
// fresh telemetry frame, a re-assembled DSE subproblem — keeps reusing the
// symbolic work. It fails without touching the plan if the structures
// differ.
func (pl *JacobianPlan) Rebind(mod *Model) error {
	if mod == pl.mod {
		return nil
	}
	if !pl.mod.SameStructure(mod) {
		return fmt.Errorf("meas: JacobianPlan rebind to structurally different model")
	}
	pl.mod = mod
	pl.loaded = false
	pl.flat = nil
	return nil
}

// TrigEvals returns the number of sines and cosines the plan has evaluated
// so far: two per bus pair the measurement set reads, once per distinct
// state handed to EvalInto, Refresh or GradInto in a row.
func (pl *JacobianPlan) TrigEvals() int { return pl.trig }

// ensureLoaded makes pl.st the load of x under the model's current
// reference angle. Bits are compared, not values: +0 and −0 are different
// states to the signed-zero arithmetic downstream.
func (pl *JacobianPlan) ensureLoaded(x []float64) {
	mod := pl.mod
	if pl.loaded && math.Float64bits(pl.refAngle) == math.Float64bits(mod.refAngle) && sameBits(x, pl.x) {
		return
	}
	mod.load(pl.st, x)
	copy(pl.x, x)
	pl.refAngle = mod.refAngle
	pl.loaded = true
	pl.trig += 2 * (len(mod.k.pairLo) - 1)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Refresh recomputes H(x) numerically into the plan's skeleton without
// allocating, and returns it.
func (pl *JacobianPlan) Refresh(x []float64) *sparse.CSR {
	pl.ensureLoaded(x)
	pl.checkEmissions(pl.mod.jacobianLoaded(pl.st, pl.val, pl.slots))
	return pl.H
}

func (pl *JacobianPlan) checkEmissions(n int) {
	if n != len(pl.slots) {
		panic(fmt.Sprintf("meas: Jacobian pass emitted %d entries, the plan's pattern has %d", n, len(pl.slots)))
	}
}

// GradInto is EvalInto, the residual and the right-hand side of the normal
// equations in one pass over the measurements, without allocating and
// without writing H: h = h(x), r = z − h, grad = H(x)ᵀ·diag(w)·r, and the
// returned J = Σ wᵢ·rᵢ². h, r, z and w have length NMeas; grad has length
// NState + 1 and its last element is scratch. Every bit of grad[:NState] is
// what sparse.GainRHSInto computes from Refresh(x), and J what summing
// w·r·r in measurement order gives.
func (pl *JacobianPlan) GradInto(grad, h, r, x, z, w []float64) float64 {
	if m := len(pl.mod.Meas); len(h) != m || len(r) != m || len(z) != m || len(w) != m || len(grad) != pl.H.Cols+1 {
		panic(fmt.Sprintf("meas: GradInto buffer lengths h=%d r=%d z=%d w=%d grad=%d for %d measurements, %d states",
			len(h), len(r), len(z), len(w), len(grad), m, pl.H.Cols))
	}
	pl.ensureLoaded(x)
	clear(grad)
	c, j := pl.mod.gradLoaded(pl.st, grad, pl.columns(), &residual{z: z, w: w, h: h, r: r})
	pl.checkEmissions(c)
	return j
}

// EvalInto computes h(x) into the caller-owned buffer h (length NMeas)
// without allocating, bitwise-identical to Model.Eval(x).
func (pl *JacobianPlan) EvalInto(h, x []float64) {
	if len(h) != len(pl.mod.Meas) {
		panic(fmt.Sprintf("meas: EvalInto buffer length %d != %d measurements", len(h), len(pl.mod.Meas)))
	}
	pl.ensureLoaded(x)
	pl.mod.evalLoaded(pl.st, h)
}

// FlatObjective returns J at the flat profile, Σ wᵢ·(zᵢ − hᵢ(flat))² summed in
// measurement order: bit for bit what evaluating h at Model.FlatVec() and
// summing w·r·r over r = z − h gives, without a state load. At the flat
// profile every angle difference is +0 whatever the (finite) reference
// angle, so h there depends on it only through the Angle rows, which read
// it live; the other rows are evaluated on the plan's first call and kept
// until Rebind. z and w have length NMeas.
func (pl *JacobianPlan) FlatObjective(z, w []float64) float64 {
	mod := pl.mod
	if m := len(mod.Meas); len(z) != m || len(w) != m {
		panic(fmt.Sprintf("meas: FlatObjective buffer lengths z=%d w=%d for %d measurements", len(z), len(w), m))
	}
	ref, flat := mod.refAngle, pl.flat
	switch {
	case math.IsInf(ref, 0) || math.IsNaN(ref):
		// The angle differences are NaN, not +0: nothing to keep.
		flat = mod.Eval(mod.FlatVec())
	case flat == nil:
		// On the plan's own load, which is then the flat profile's.
		flat = make([]float64, len(mod.Meas))
		mod.flatInto(pl.x)
		pl.loaded = false
		pl.EvalInto(flat, pl.x)
		pl.flat = flat
	}
	var j float64
	for i, op := range mod.k.ops {
		h := flat[i]
		if op.step == stepAngle {
			h = ref
		}
		r := z[i] - h
		j += w[i] * r * r
	}
	return j
}
