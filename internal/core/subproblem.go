package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

// Subproblem is a local estimation problem — a subsystem's Step 1 or Step 2,
// or the hierarchical coordinator's boundary system: a sub-network, a
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
	pseudo    []pseudoSlot   // pseudo-measurement entries
	restored  []restoredSlot // observability-restoration entries
	refSrc    int32          // global frame index of the reference PMU angle, or -1
	refPair   int32          // pseudo index of the reference pseudo angle, or -1
	nGlobal   int            // frame length the skeleton was built from
	nPackets  int            // expected incoming packet count
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
// and the locally available measurements, the meters it owns there (see
// build): voltage and PMU measurements on own buses, P/Q injections on own
// non-boundary buses, and P/Q flows on internal branches. The angle
// reference is the PMU angle measurement at the subsystem's reference bus,
// which must be present (the cited DSE algorithm [5] relies on synchronized
// phasors).
func (d *Decomposition) BuildStep1(si int, global []meas.Measurement) (*Subproblem, error) {
	return d.build(&d.Subsystems[si], nil, global, nil, 0)
}

// BuildStep2 constructs subsystem si's DSE Step 2 problem: the extended
// sub-network (Step 1's plus the incident tie lines and the neighbor
// boundary buses they reach), the meters it owns there — Step 1's plus the
// measurements "related to the boundary and sensitive internal buses" that
// Step 1 could not use (boundary-bus injections and tie-line flows metered
// at the own end) — and the neighbors' solved states as
// pseudo-measurements. pseudo holds the packets received from neighbors;
// pseudoSigma <= 0 selects PseudoSigmaDefault.
func (d *Decomposition) BuildStep2(si int, global []meas.Measurement, pseudo []PseudoPacket, pseudoSigma float64) (*Subproblem, error) {
	var ties []int
	for _, tl := range d.TieLinesOf(si) {
		ties = append(ties, tl.Branch)
	}
	return d.build(&d.Subsystems[si], ties, global, pseudo, pseudoSigma)
}

// boundarySystem is the Subsystem.Index of the hierarchical coordinator's
// boundary system (boundarySubsystem).
const boundarySystem = -1

// boundarySubsystem returns the region the coordinator re-estimates: every
// boundary bus, joined by the tie lines as its internal branches, referenced
// at the lowest bus. It is nil when the decomposition has no tie lines.
func (d *Decomposition) boundarySubsystem() *Subsystem {
	if len(d.TieLines) == 0 {
		return nil
	}
	b := &Subsystem{Index: boundarySystem}
	for _, s := range d.Subsystems {
		b.Buses = append(b.Buses, s.Boundary...)
	}
	slices.Sort(b.Buses)
	for _, tl := range d.TieLines {
		b.InternalBranches = append(b.InternalBranches, tl.Branch)
	}
	b.RefBus = b.Buses[0]
	return b
}

// label names s in messages.
func (s *Subsystem) label() string {
	if s.Index == boundarySystem {
		return "boundary system"
	}
	return fmt.Sprintf("subsystem %d", s.Index)
}

// build constructs the local estimation problem of s — a subsystem's Step 1
// (ties nil), its Step 2 (ties its tie lines), or the boundary system — on a
// sub-network of s's buses and internal branches, the branches in ties and
// the buses they reach. It holds one meter rule: a frame meter belongs to
// the problem when it sits at an own bus and the sub-network holds every
// in-service branch its row reads. A flow sits at the metered end of its
// branch, which must be in the sub-network; an injection reads every
// in-service branch at its bus. A bus that takes a pseudo pair takes none of
// its bus meters: the pair is what its own estimator made of them.
//
// Every packet state at a bus of the sub-network becomes a pseudo pair
// (Vmag, Angle) weighted at pseudoSigma (<= 0: PseudoSigmaDefault). The
// boundary system lists its pairs before its meters, a subsystem after;
// meters keep frame order. The angle reference is the pair's angle where the
// reference bus takes a pair, else the frame's PMU angle there, which must
// be present.
func (d *Decomposition) build(s *Subsystem, ties []int, global []meas.Measurement, pseudo []PseudoPacket, pseudoSigma float64) (*Subproblem, error) {
	n := d.Net
	if pseudoSigma <= 0 {
		pseudoSigma = PseudoSigmaDefault
	}
	own, inNet := make([]bool, n.N()), make([]bool, n.N())
	for _, gi := range s.Buses {
		own[gi], inNet[gi] = true, true
	}
	var ext []int
	for _, bi := range ties {
		for _, id := range [2]int{n.Branches[bi].From, n.Branches[bi].To} {
			if gi := n.MustIndex(id); !inNet[gi] {
				inNet[gi] = true
				ext = append(ext, gi)
			}
		}
	}
	slices.Sort(ext)
	localNet, branchMap, err := d.subNetwork(s, ext, ties, inNet)
	if err != nil {
		return nil, err
	}
	whole, paired := slices.Clone(own), make([]bool, n.N())
	for bi, br := range n.Branches {
		if _, ok := branchMap[bi]; br.Status && !ok {
			whole[n.MustIndex(br.From)], whole[n.MustIndex(br.To)] = false, false
		}
	}
	for _, pkt := range pseudo {
		for _, bs := range pkt.States {
			if gi, ok := n.Index(bs.BusID); ok && inNet[gi] {
				paired[gi] = true
			}
		}
	}

	var ms []meas.Measurement
	sp := &Subproblem{refSrc: -1, nGlobal: len(global), nPackets: len(pseudo)}
	add := func(m meas.Measurement, gi, gbr int) {
		ms = append(ms, m)
		sp.src = append(sp.src, int32(gi))
		sp.srcBranch = append(sp.srcBranch, int32(gbr))
	}
	addPairs := func() {
		for pi, pkt := range pseudo {
			for sj, bs := range pkt.States {
				if gi, ok := n.Index(bs.BusID); !ok || !inNet[gi] {
					continue
				}
				ps := pseudoSlot{mi: int32(len(ms)), pkt: int32(pi), state: int32(sj), busID: int32(bs.BusID), fromSub: int32(pkt.FromSub)}
				sp.pseudo = append(sp.pseudo, ps)
				ps.mi, ps.angle = ps.mi+1, true
				sp.pseudo = append(sp.pseudo, ps)
				add(meas.Measurement{Kind: meas.Vmag, Bus: bs.BusID, Sigma: pseudoSigma, Value: bs.Vm}, -1, -1)
				add(meas.Measurement{Kind: meas.Angle, Bus: bs.BusID, Sigma: pseudoSigma, Value: bs.Va}, -1, -1)
			}
		}
	}
	if s.Index == boundarySystem {
		addPairs()
	}
	for gi, m := range global {
		at, gbr := m.Bus, -1
		if m.Kind == meas.Pflow || m.Kind == meas.Qflow {
			li, ok := branchMap[m.Branch]
			if !ok {
				continue
			}
			br := n.Branches[m.Branch]
			at, gbr = br.To, m.Branch
			if m.FromSide {
				at = br.From
			}
			m.Branch = li
		}
		b, ok := n.Index(at)
		injection := m.Kind == meas.Pinj || m.Kind == meas.Qinj
		if ok && own[b] && (gbr >= 0 || !paired[b]) && (!injection || whole[b]) {
			add(m, gi, gbr)
		}
	}
	if s.Index != boundarySystem {
		addPairs()
	}

	refID := n.Buses[s.RefBus].ID
	sp.refPair = int32(slices.IndexFunc(sp.pseudo, func(ps pseudoSlot) bool { return ps.angle && int(ps.busID) == refID }))
	if sp.refPair >= 0 {
		sp.refAngle = ms[sp.pseudo[sp.refPair].mi].Value
	} else if sp.refSrc = int32(refAngleSource(global, refID)); sp.refSrc >= 0 {
		sp.refAngle = global[sp.refSrc].Value
	} else {
		return nil, fmt.Errorf("core: %s has no PMU angle measurement at reference bus %d", s.label(), refID)
	}
	localRef, ok := localNet.Index(refID)
	if !ok {
		return nil, fmt.Errorf("core: reference bus %d missing from sub-network", refID)
	}
	if sp.Model, err = meas.NewModel(localNet, ms, localRef, sp.refAngle); err != nil {
		return nil, fmt.Errorf("core: %s model: %w", s.label(), err)
	}
	sp.Sub, sp.Net, sp.refBusID = s, localNet, refID
	sp.OwnBuses = make([]int, len(s.Buses))
	sp.own = make([]busRef, len(s.Buses))
	for i, gi := range s.Buses {
		id := n.Buses[gi].ID
		sp.OwnBuses[i] = id
		sp.own[i] = busRef{id: int32(id), local: int32(localNet.MustIndex(id)), global: int32(gi)}
	}
	for _, gi := range slices.Concat(s.Boundary, s.Sensitive) {
		id := n.Buses[gi].ID
		if li, ok := localNet.Index(id); ok {
			sp.emit = append(sp.emit, busRef{id: int32(id), local: int32(li), global: int32(gi)})
		}
	}
	return sp, nil
}

// subNetwork assembles a sub-network of s's buses and internal branches plus
// extra buses and branches; inNet marks every bus it holds. Bus types are
// normalized: s's reference becomes the slack, everything else PQ
// (estimation never reads bus types, but the grid package validates them).
func (d *Decomposition) subNetwork(s *Subsystem, extraBuses, extraBranches []int, inNet []bool) (*grid.Network, map[int]int, error) {
	var buses []grid.Bus
	for _, gi := range slices.Concat(s.Buses, extraBuses) {
		b := d.Net.Buses[gi]
		b.Type = grid.PQ
		if gi == s.RefBus {
			b.Type = grid.Slack
		}
		buses = append(buses, b)
	}
	branchMap := make(map[int]int) // global branch index -> local index
	var branches []grid.Branch
	for _, bi := range slices.Concat(s.InternalBranches, extraBranches) {
		branchMap[bi] = len(branches)
		branches = append(branches, d.Net.Branches[bi])
	}
	var gens []grid.Gen
	for _, g := range d.Net.Gens {
		if gi, ok := d.Net.Index(g.Bus); ok && inNet[gi] {
			gens = append(gens, g)
		}
	}
	name := fmt.Sprintf("%s-sub%d", d.Net.Name, s.Index)
	if s.Index == boundarySystem {
		name = d.Net.Name + "-boundary"
	}
	net, err := grid.New(name, d.Net.BaseMVA, buses, branches, gens)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %s: %w", name, err)
	}
	return net, branchMap, nil
}

// UpdateMeasurements refreshes the skeleton's telemetered values from a new
// global frame without rebuilding anything symbolic: each model measurement
// is re-read from the frame position recorded at build time, the reference
// angle is rebound to the fresh PMU value (a pseudo reference angle is
// UpdatePseudo's), and restoration pseudo-angles follow it. The frame must have the same layout (count, kinds, locations,
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
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			return fmt.Errorf("%w: frame position %d (%s) has non-finite value %g", meas.ErrBadMeasurement, s, g.Key(), g.Value)
		}
		o.Value = g.Value
	}
	sp.rebindRef()
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

// UpdatePseudo refreshes the pseudo-measurement values from a new round's
// incoming packets, and the reference angle where the reference bus takes a
// pair. The packet layout (count, senders, per-packet state order) is
// topology-determined and must match the build-time layout; a mismatch
// returns an error wrapping ErrStaleSkeleton.
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
	if sp.refPair >= 0 {
		sp.refAngle = mod.Meas[sp.pseudo[sp.refPair].mi].Value
		sp.rebindRef()
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
