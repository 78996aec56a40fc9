package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
)

// ErrStaleSkeleton reports that a cached subproblem skeleton no longer
// matches the frame it is being refreshed from: the measurement plan or the
// pseudo-packet layout changed shape, so the skeleton must be rebuilt.
var ErrStaleSkeleton = errors.New("core: cached subproblem stale against frame layout")

// PseudoSigmaDefault is the standard deviation assigned to exchanged
// pseudo-measurements (solved neighbor states). Solved states are more
// accurate than raw telemetry, so the weight is tighter than meter noise.
const PseudoSigmaDefault = 0.002

// BusState is one bus's solved state, the unit of pseudo-measurement
// exchange between neighboring state estimators.
type BusState struct {
	BusID int     // external bus number
	Vm    float64 // per-unit
	Va    float64 // radians (global PMU-synchronized reference)
}

// PseudoPacket is what one state estimator sends to a neighbor after DSE
// Step 1: the solved states of its boundary and sensitive internal buses.
type PseudoPacket struct {
	FromSub int
	States  []BusState
}

// Subproblem is a subsystem's local estimation problem: a sub-network, a
// measurement model over it, and the mapping back to global bus indices.
type Subproblem struct {
	Sub   *Subsystem
	Net   *grid.Network // local sub-network (original bus IDs preserved)
	Model *meas.Model
	// OwnBuses lists the external IDs of buses owned by this subsystem
	// (excludes neighbor boundary buses present in a Step-2 network).
	OwnBuses []int
	refAngle float64
	refBusID int // external ID of the angle-reference bus

	// own pairs every OwnBuses entry with its sub-network and full-network
	// indices (MergeInto), and emit lists the subsystem's boundary, then
	// sensitive, buses present in Net (ExtractPseudo): resolved once here
	// rather than through Network.Index per bus per round.
	own, emit []busRef

	// Build provenance: where each model measurement's value comes from, so
	// a cached skeleton can be refreshed with fresh values (see
	// UpdateMeasurements / UpdatePseudo) instead of being rebuilt per frame.
	src       []int32        // model meas index -> global frame index, -1 for pseudo/restored
	srcBranch []int32        // expected global branch index for flow entries, -1 otherwise
	pseudo    []pseudoSlot   // step-2 pseudo-measurement entries
	restored  []restoredSlot // observability-restoration entries
	refSrc    int32          // global frame index of the reference PMU angle
	nGlobal   int            // frame length the skeleton was built from
	nPackets  int            // expected incoming packet count (step 2)

	// A Step-2 skeleton paired with its subsystem's Step-1 skeleton
	// (pairWith) holds, per model measurement, the Step-1 model measurement
	// read from the same frame position, −1 where Step 1 reads none.
	step1     *Subproblem
	fromStep1 []int32
}

// busRef is one bus of a subproblem: its external ID, its index in the
// sub-network and its index in the full network.
type busRef struct{ id, local, global int32 }

// pseudoSlot ties one pseudo-measurement model entry to its coordinates in
// the incoming packet slice (packet position, state position, angle/Vm).
type pseudoSlot struct {
	mi      int32 // model measurement index
	pkt     int32 // position in the incoming packet slice
	state   int32 // index into packet.States
	busID   int32
	fromSub int32
	angle   bool // Angle entry (else Vmag)
}

// restoredSlot marks a flat-profile restoration pseudo-measurement; angle
// entries track the per-frame reference angle, Vmag entries stay at 1 pu.
type restoredSlot struct {
	mi    int32
	angle bool
}

// RefAngle returns the angle pinning the subproblem's reference bus — the
// PMU-synchronized angle that keeps all subsystem solutions in one frame.
func (sp *Subproblem) RefAngle() float64 { return sp.refAngle }

// BuildStep1 constructs subsystem si's DSE Step 1 problem from the global
// measurement set: the local sub-network (own buses + internal branches)
// and the locally available measurements — voltage and PMU measurements on
// own buses, P/Q injections on own non-boundary buses, and P/Q flows on
// internal branches. The angle reference comes from the PMU angle
// measurement at the subsystem's reference bus, which must be present
// (the cited DSE algorithm [5] relies on synchronized phasors).
func (d *Decomposition) BuildStep1(si int, global []meas.Measurement) (*Subproblem, error) {
	s := &d.Subsystems[si]
	localNet, branchMap, err := d.subNetwork(s, nil, nil)
	if err != nil {
		return nil, err
	}
	isBoundary := intSet(s.Boundary)
	own := intSet(s.Buses)

	refID := d.Net.Buses[s.RefBus].ID
	refIdx := refAngleSource(global, refID)
	if refIdx < 0 {
		return nil, fmt.Errorf("core: subsystem %d has no PMU angle measurement at reference bus %d", si, refID)
	}
	refAngle := global[refIdx].Value

	var local []meas.Measurement
	var src, srcBranch []int32
	add := func(gi int, m meas.Measurement, gbr int) {
		local = append(local, m)
		src = append(src, int32(gi))
		srcBranch = append(srcBranch, int32(gbr))
	}
	for gi, m := range global {
		switch m.Kind {
		case meas.Vmag, meas.Angle:
			if b, ok := d.Net.Index(m.Bus); ok && own[b] {
				add(gi, m, -1)
			}
		case meas.Pinj, meas.Qinj:
			if b, ok := d.Net.Index(m.Bus); ok && own[b] && !isBoundary[b] {
				add(gi, m, -1)
			}
		case meas.Pflow, meas.Qflow:
			if li, ok := branchMap[m.Branch]; ok {
				lm := m
				lm.Branch = li
				add(gi, lm, m.Branch)
			}
		}
	}
	sp, err := d.finishSubproblem(s, localNet, local, refAngle)
	if err != nil {
		return nil, err
	}
	sp.src, sp.srcBranch = src, srcBranch
	sp.refSrc = int32(refIdx)
	sp.nGlobal = len(global)
	return sp, nil
}

// BuildStep2 constructs subsystem si's DSE Step 2 problem: the extended
// sub-network (own buses + internal branches + incident tie lines + the
// neighbor boundary buses they reach), the Step-1 local measurements plus
// the measurements "related to the boundary and sensitive internal buses"
// that Step 1 could not use (boundary-bus injections and tie-line flows
// metered at the own end), and the neighbors' solved states as
// pseudo-measurements. pseudo holds the packets received from neighbors;
// pseudoSigma <= 0 selects PseudoSigmaDefault.
func (d *Decomposition) BuildStep2(si int, global []meas.Measurement, pseudo []PseudoPacket, pseudoSigma float64) (*Subproblem, error) {
	s := &d.Subsystems[si]
	if pseudoSigma <= 0 {
		pseudoSigma = PseudoSigmaDefault
	}
	ties := d.TieLinesOf(si)
	own := intSet(s.Buses)

	// Neighbor boundary buses reached by incident tie lines.
	extSet := make(map[int]bool)
	var tieBranches []int
	for _, tl := range ties {
		br := d.Net.Branches[tl.Branch]
		f, t := d.Net.MustIndex(br.From), d.Net.MustIndex(br.To)
		if !own[f] {
			extSet[f] = true
		}
		if !own[t] {
			extSet[t] = true
		}
		tieBranches = append(tieBranches, tl.Branch)
	}
	ext := make([]int, 0, len(extSet))
	for b := range extSet {
		ext = append(ext, b)
	}
	sort.Ints(ext)

	localNet, branchMap, err := d.subNetwork(s, ext, tieBranches)
	if err != nil {
		return nil, err
	}

	refID := d.Net.Buses[s.RefBus].ID
	refIdx := refAngleSource(global, refID)
	if refIdx < 0 {
		return nil, fmt.Errorf("core: subsystem %d has no PMU angle measurement at reference bus %d", si, refID)
	}
	refAngle := global[refIdx].Value

	var local []meas.Measurement
	var src, srcBranch []int32
	add := func(gi int, m meas.Measurement, gbr int) {
		local = append(local, m)
		src = append(src, int32(gi))
		srcBranch = append(srcBranch, int32(gbr))
	}
	for gi, m := range global {
		switch m.Kind {
		case meas.Vmag, meas.Angle:
			if b, ok := d.Net.Index(m.Bus); ok && own[b] {
				add(gi, m, -1)
			}
		case meas.Pinj, meas.Qinj:
			// All own injections are now computable: boundary buses see
			// their tie-line neighbors in the extended network.
			if b, ok := d.Net.Index(m.Bus); ok && own[b] {
				add(gi, m, -1)
			}
		case meas.Pflow, meas.Qflow:
			li, ok := branchMap[m.Branch]
			if !ok {
				continue
			}
			// Internal branch flows always; tie-line flows only when the
			// metered end is an own bus (the neighbor's RTU is remote).
			br := d.Net.Branches[m.Branch]
			meterBus := br.To
			if m.FromSide {
				meterBus = br.From
			}
			if b, ok := d.Net.Index(meterBus); ok && own[b] {
				lm := m
				lm.Branch = li
				add(gi, lm, m.Branch)
			}
		}
	}

	// Pseudo-measurements: neighbors' solved states for the extended buses.
	var slots []pseudoSlot
	for pi, pkt := range pseudo {
		for sj, bs := range pkt.States {
			gi, ok := d.Net.Index(bs.BusID)
			if !ok || !extSet[gi] {
				continue // state of a bus outside this extended network
			}
			slots = append(slots,
				pseudoSlot{mi: int32(len(local)), pkt: int32(pi), state: int32(sj),
					busID: int32(bs.BusID), fromSub: int32(pkt.FromSub)},
				pseudoSlot{mi: int32(len(local) + 1), pkt: int32(pi), state: int32(sj),
					busID: int32(bs.BusID), fromSub: int32(pkt.FromSub), angle: true})
			local = append(local,
				meas.Measurement{Kind: meas.Vmag, Bus: bs.BusID, Sigma: pseudoSigma, Value: bs.Vm},
				meas.Measurement{Kind: meas.Angle, Bus: bs.BusID, Sigma: pseudoSigma, Value: bs.Va})
			src = append(src, -1, -1)
			srcBranch = append(srcBranch, -1, -1)
		}
	}
	sp, err := d.finishSubproblem(s, localNet, local, refAngle)
	if err != nil {
		return nil, err
	}
	sp.src, sp.srcBranch = src, srcBranch
	sp.pseudo = slots
	sp.refSrc = int32(refIdx)
	sp.nGlobal = len(global)
	sp.nPackets = len(pseudo)
	return sp, nil
}

// subNetwork assembles a sub-network of own buses plus optional extra buses
// and branches. Bus types are normalized: the subsystem reference becomes
// the slack, everything else PQ (estimation never reads bus types, but the
// grid package validates them).
func (d *Decomposition) subNetwork(s *Subsystem, extraBuses, extraBranches []int) (*grid.Network, map[int]int, error) {
	var buses []grid.Bus
	include := make(map[int]bool)
	addBus := func(gi int) {
		if include[gi] {
			return
		}
		include[gi] = true
		b := d.Net.Buses[gi]
		if gi == s.RefBus {
			b.Type = grid.Slack
		} else {
			b.Type = grid.PQ
		}
		buses = append(buses, b)
	}
	for _, gi := range s.Buses {
		addBus(gi)
	}
	for _, gi := range extraBuses {
		addBus(gi)
	}

	branchMap := make(map[int]int) // global branch index -> local index
	var branches []grid.Branch
	for _, bi := range s.InternalBranches {
		branchMap[bi] = len(branches)
		branches = append(branches, d.Net.Branches[bi])
	}
	for _, bi := range extraBranches {
		branchMap[bi] = len(branches)
		branches = append(branches, d.Net.Branches[bi])
	}

	var gens []grid.Gen
	for _, g := range d.Net.Gens {
		if gi, ok := d.Net.Index(g.Bus); ok && include[gi] {
			gens = append(gens, g)
		}
	}
	name := fmt.Sprintf("%s-sub%d", d.Net.Name, s.Index)
	net, err := grid.New(name, d.Net.BaseMVA, buses, branches, gens)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %s: %w", name, err)
	}
	return net, branchMap, nil
}

func (d *Decomposition) finishSubproblem(s *Subsystem, localNet *grid.Network, ms []meas.Measurement, refAngle float64) (*Subproblem, error) {
	refID := d.Net.Buses[s.RefBus].ID
	localRef, ok := localNet.Index(refID)
	if !ok {
		return nil, fmt.Errorf("core: reference bus %d missing from sub-network", refID)
	}
	mod, err := meas.NewModel(localNet, ms, localRef, refAngle)
	if err != nil {
		return nil, fmt.Errorf("core: subsystem %d model: %w", s.Index, err)
	}
	ownIDs := make([]int, len(s.Buses))
	own := make([]busRef, len(s.Buses))
	for i, gi := range s.Buses {
		id := d.Net.Buses[gi].ID
		ownIDs[i] = id
		own[i] = busRef{id: int32(id), local: int32(localNet.MustIndex(id)), global: int32(gi)}
	}
	emit := make([]busRef, 0, len(s.Boundary)+len(s.Sensitive))
	for _, gi := range slices.Concat(s.Boundary, s.Sensitive) {
		id := d.Net.Buses[gi].ID
		if li, ok := localNet.Index(id); ok {
			emit = append(emit, busRef{id: int32(id), local: int32(li), global: int32(gi)})
		}
	}
	return &Subproblem{
		Sub: s, Net: localNet, Model: mod, OwnBuses: ownIDs,
		refAngle: refAngle, refBusID: refID, refSrc: -1,
		own: own, emit: emit,
	}, nil
}

// UpdateMeasurements refreshes the skeleton's telemetered values from a new
// global frame without rebuilding anything symbolic: each model measurement
// is re-read from the frame position recorded at build time, the reference
// angle is rebound to the fresh PMU value, and restoration pseudo-angles
// follow it. The frame must have the same layout (count, kinds, locations,
// sigmas) as the one the skeleton was built from; any drift returns an
// error wrapping ErrStaleSkeleton, the caller's signal to rebuild. A
// non-finite value returns one wrapping meas.ErrBadMeasurement, as the
// rebuild's NewModel will.
func (sp *Subproblem) UpdateMeasurements(global []meas.Measurement) error {
	if sp.src == nil {
		return fmt.Errorf("%w: skeleton has no refresh provenance", ErrStaleSkeleton)
	}
	if len(global) != sp.nGlobal {
		return fmt.Errorf("%w: frame has %d measurements, skeleton built from %d", ErrStaleSkeleton, len(global), sp.nGlobal)
	}
	if sp.refSrc >= 0 {
		g := global[sp.refSrc]
		if g.Kind != meas.Angle || g.Bus != sp.refBusID {
			return fmt.Errorf("%w: reference PMU moved from frame position %d", ErrStaleSkeleton, sp.refSrc)
		}
		sp.refAngle = g.Value
	}
	for i, s := range sp.src {
		if s < 0 {
			continue // pseudo or restored entry; refreshed elsewhere
		}
		if err := sp.readEntry(i, global); err != nil {
			return err
		}
	}
	sp.rebindRef()
	return nil
}

// readEntry checks model measurement i's frame position against the layout
// the skeleton was built from and takes its value.
func (sp *Subproblem) readEntry(i int, global []meas.Measurement) error {
	s := sp.src[i]
	g, o := global[s], &sp.Model.Meas[i]
	if g.Kind != o.Kind || g.Sigma != o.Sigma || g.FromSide != o.FromSide {
		return fmt.Errorf("%w: frame position %d changed identity", ErrStaleSkeleton, s)
	}
	switch g.Kind {
	case meas.Pflow, meas.Qflow:
		if int32(g.Branch) != sp.srcBranch[i] {
			return fmt.Errorf("%w: frame position %d changed branch", ErrStaleSkeleton, s)
		}
	default:
		if g.Bus != o.Bus {
			return fmt.Errorf("%w: frame position %d changed bus", ErrStaleSkeleton, s)
		}
	}
	if err := finiteValue(int(s), g); err != nil {
		return err
	}
	o.Value = g.Value
	return nil
}

// rebindRef moves the restoration pseudo-angles and the model's reference
// to the refreshed reference angle.
func (sp *Subproblem) rebindRef() {
	for _, r := range sp.restored {
		if r.angle {
			sp.Model.Meas[r.mi].Value = sp.refAngle
		}
	}
	sp.Model.SetRefAngle(sp.refAngle)
}

// pairWith pairs the Step-2 skeleton sp with s1, its subsystem's Step-1
// skeleton, where both were built against the layout of one frame; it
// leaves sp unpaired where s1 cannot refresh or reads the reference from
// elsewhere.
func (sp *Subproblem) pairWith(s1 *Subproblem) {
	sp.step1, sp.fromStep1 = nil, nil
	if s1.src == nil || s1.nGlobal != sp.nGlobal || s1.refSrc != sp.refSrc {
		return
	}
	at := make([]int32, sp.nGlobal)
	for i := range at {
		at[i] = -1
	}
	for j, s := range s1.src {
		if s >= 0 {
			at[s] = int32(j)
		}
	}
	sp.step1, sp.fromStep1 = s1, make([]int32, len(sp.src))
	for i, s := range sp.src {
		sp.fromStep1[i] = -1
		if s >= 0 {
			sp.fromStep1[i] = at[s]
		}
	}
}

// updateAfterStep1 is UpdateMeasurements for a Step-2 skeleton whose paired
// Step-1 skeleton has just refreshed from global: the frame positions Step 1
// reads were checked against one layout there, so their values come from
// the Step-1 model, and only the positions Step 2 alone reads are checked
// against the frame.
func (sp *Subproblem) updateAfterStep1(global []meas.Measurement) error {
	s1 := sp.step1
	for i, j := range sp.fromStep1 {
		if j >= 0 {
			sp.Model.Meas[i].Value = s1.Model.Meas[j].Value
		} else if sp.src[i] >= 0 {
			if err := sp.readEntry(i, global); err != nil {
				return err
			}
		}
	}
	sp.refAngle = s1.refAngle
	sp.rebindRef()
	return nil
}

// finiteValue is the check meas.NewModel and Model.UpdateValues apply to a
// telemetered value, for the folds that write Model.Meas in place.
func finiteValue(pos int, g meas.Measurement) error {
	if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
		return fmt.Errorf("%w: frame position %d (%s) has non-finite value %g", meas.ErrBadMeasurement, pos, g.Key(), g.Value)
	}
	return nil
}

// UpdatePseudo refreshes the Step-2 pseudo-measurement values from a new
// round's incoming packets. The packet layout (count, senders, per-packet
// state order) is topology-determined and must match the build-time layout;
// a mismatch returns an error wrapping ErrStaleSkeleton.
func (sp *Subproblem) UpdatePseudo(pseudo []PseudoPacket) error {
	if sp.src == nil {
		return fmt.Errorf("%w: skeleton has no refresh provenance", ErrStaleSkeleton)
	}
	if len(pseudo) != sp.nPackets {
		return fmt.Errorf("%w: %d incoming packets, skeleton built from %d", ErrStaleSkeleton, len(pseudo), sp.nPackets)
	}
	mod := sp.Model
	for _, ps := range sp.pseudo {
		pkt := &pseudo[ps.pkt]
		if int32(pkt.FromSub) != ps.fromSub || int(ps.state) >= len(pkt.States) {
			return fmt.Errorf("%w: packet %d layout changed", ErrStaleSkeleton, ps.pkt)
		}
		bs := pkt.States[ps.state]
		if int32(bs.BusID) != ps.busID {
			return fmt.Errorf("%w: packet %d state %d moved to bus %d", ErrStaleSkeleton, ps.pkt, ps.state, bs.BusID)
		}
		if ps.angle {
			mod.Meas[ps.mi].Value = bs.Va
		} else {
			mod.Meas[ps.mi].Value = bs.Vm
		}
	}
	return nil
}

// ReplaceMeasurements rebuilds the subproblem's model with a different
// measurement set over the same sub-network (used by observability
// restoration). When ms extends the current measurement set as a strict
// prefix with flat-profile restoration entries (Angle at the reference
// angle, Vmag at 1 pu), the refresh provenance is extended so the skeleton
// stays value-refreshable; any other replacement drops the provenance, and
// UpdateMeasurements will then report the skeleton stale.
func (sp *Subproblem) ReplaceMeasurements(ms []meas.Measurement) error {
	localRef, ok := sp.Net.Index(sp.refBusID)
	if !ok {
		return fmt.Errorf("core: reference bus %d missing from sub-network", sp.refBusID)
	}
	old := sp.Model.Meas
	mod, err := meas.NewModel(sp.Net, ms, localRef, sp.refAngle)
	if err != nil {
		return err
	}
	sp.Model = mod
	if sp.src == nil {
		return nil
	}
	keep := len(ms) >= len(old)
	for i := 0; keep && i < len(old); i++ {
		m, o := ms[i], old[i]
		keep = m.Kind == o.Kind && m.Bus == o.Bus && m.Branch == o.Branch &&
			m.FromSide == o.FromSide && m.Sigma == o.Sigma
	}
	for i := len(old); keep && i < len(ms); i++ {
		m := ms[i]
		switch {
		case m.Kind == meas.Angle && m.Value == sp.refAngle:
			sp.restored = append(sp.restored, restoredSlot{mi: int32(i), angle: true})
		case m.Kind == meas.Vmag && m.Value == 1:
			sp.restored = append(sp.restored, restoredSlot{mi: int32(i)})
		default:
			keep = false
		}
		sp.src = append(sp.src, -1)
		sp.srcBranch = append(sp.srcBranch, -1)
	}
	if !keep {
		sp.src, sp.srcBranch, sp.pseudo, sp.restored = nil, nil, nil, nil
	}
	return nil
}

// ExtractPseudo packages the boundary and sensitive-internal bus states of
// subsystem si from a solved local state — the payload sent to every
// neighbor after Step 1. sp is one of si's subproblems.
func (d *Decomposition) ExtractPseudo(si int, sp *Subproblem, st powerflow.State) PseudoPacket {
	return PseudoPacket{FromSub: si, States: sp.appendPseudo(make([]BusState, 0, len(sp.emit)), st)}
}

// appendPseudo appends ExtractPseudo's states to dst.
func (sp *Subproblem) appendPseudo(dst []BusState, st powerflow.State) []BusState {
	for _, b := range sp.emit {
		dst = append(dst, BusState{BusID: int(b.id), Vm: st.Vm[b.local], Va: st.Va[b.local]})
	}
	return dst
}

// MergeInto writes the subproblem's solved own-bus states into a global
// state vector (indexed by the full network's internal bus order). d is the
// decomposition sp was built from, whose bus indices sp resolved at build
// time.
func (sp *Subproblem) MergeInto(d *Decomposition, st powerflow.State, global *powerflow.State) {
	for _, b := range sp.own {
		global.Vm[b.global] = st.Vm[b.local]
		global.Va[b.global] = st.Va[b.local]
	}
}

func findRefAngle(ms []meas.Measurement, busID int) (float64, bool) {
	if i := refAngleSource(ms, busID); i >= 0 {
		return ms[i].Value, true
	}
	return 0, false
}

// refAngleSource returns the frame position of the first PMU angle
// measurement at busID, or -1 when the frame has none.
func refAngleSource(ms []meas.Measurement, busID int) int {
	for i, m := range ms {
		if m.Kind == meas.Angle && m.Bus == busID {
			return i
		}
	}
	return -1
}

func intSet(xs []int) map[int]bool {
	s := make(map[int]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}
