package main

import (
	"testing"

	"repro/internal/grid"
)

// twoBusStation: a tiny node-breaker model — four nodes, two per bus,
// joined by bus-section breakers, one line between the buses.
func twoBusStation() *NodeModel {
	return &NodeModel{
		Name:    "station",
		BaseMVA: 100,
		Nodes: []Node{
			{ID: 10, Bus: grid.Bus{Type: grid.Slack, Vm: 1.02, BaseKV: 138}},
			{ID: 11, Bus: grid.Bus{Type: grid.PQ, Pd: 10, Qd: 3, Vm: 1, BaseKV: 138}},
			{ID: 20, Bus: grid.Bus{Type: grid.PQ, Pd: 40, Qd: 12, Vm: 1, BaseKV: 138}},
			{ID: 21, Bus: grid.Bus{Type: grid.PQ, Pd: 5, Qd: 1, Vm: 1, BaseKV: 138}},
		},
		Switches: []Switch{
			{Name: "bs-1", A: 10, B: 11, Closed: true},
			{Name: "bs-2", A: 20, B: 21, Closed: true},
		},
		Branches: []grid.Branch{
			{From: 10, To: 20, R: 0.01, X: 0.08, Status: true},
			{From: 11, To: 21, R: 0.01, X: 0.09, Status: true},
		},
		Gens: []grid.Gen{{Bus: 10, Pg: 55, Vset: 1.02, Status: true}},
	}
}

func TestConsolidateMergesClosedSwitches(t *testing.T) {
	con, err := twoBusStation().Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	n := con.Network
	if n.N() != 2 {
		t.Fatalf("%d buses, want 2", n.N())
	}
	// Bus numbered by the smallest member node.
	i, ok := n.Index(10)
	if !ok {
		t.Fatal("bus 10 missing")
	}
	b := n.Buses[i]
	if b.Type != grid.Slack {
		t.Errorf("merged bus type %v, want slack (strongest wins)", b.Type)
	}
	if b.Pd != 10 { // 0 + 10 from nodes 10, 11
		t.Errorf("merged Pd = %v, want 10", b.Pd)
	}
	i20 := n.MustIndex(20)
	if n.Buses[i20].Pd != 45 {
		t.Errorf("bus 20 Pd = %v, want 45", n.Buses[i20].Pd)
	}
	// Both lines survive as parallel circuits 10-20.
	if len(n.Branches) != 2 {
		t.Fatalf("%d branches, want 2", len(n.Branches))
	}
	for _, br := range n.Branches {
		if br.From != 10 || br.To != 20 {
			t.Fatalf("branch %d-%d, want 10-20", br.From, br.To)
		}
	}
	if con.NodeBus[11] != 10 || con.NodeBus[21] != 20 {
		t.Fatalf("node-bus map %v", con.NodeBus)
	}
	if n.Gens[0].Bus != 10 {
		t.Fatalf("generator on bus %d", n.Gens[0].Bus)
	}
}

func TestConsolidateDropsIntraBusBranches(t *testing.T) {
	m := twoBusStation()
	// A branch between two nodes of the same consolidated bus.
	m.Branches = append(m.Branches, grid.Branch{From: 10, To: 11, X: 0.01, Status: true})
	con, err := m.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if len(con.DroppedBranches) != 1 || con.DroppedBranches[0] != 2 {
		t.Fatalf("dropped = %v, want [2]", con.DroppedBranches)
	}
	if len(con.Network.Branches) != 2 {
		t.Fatalf("%d branches survive", len(con.Network.Branches))
	}
}

func TestOpenBreakerSplitsBus(t *testing.T) {
	m := twoBusStation()
	if err := m.SetSwitch("bs-2", false); err != nil {
		t.Fatal(err)
	}
	con, err := m.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	// Bus 20/21 split: 3 buses now, and the network stays connected
	// because the two lines land on different halves.
	if con.Network.N() != 3 {
		t.Fatalf("%d buses after split, want 3", con.Network.N())
	}
	if !con.Network.Connected() {
		t.Fatal("split station should remain connected via the two lines")
	}
	if err := m.SetSwitch("no-such", true); err == nil {
		t.Fatal("unknown switch accepted")
	}
}

func TestConsolidateValidation(t *testing.T) {
	m := &NodeModel{Name: "bad", BaseMVA: 100}
	if _, err := m.Consolidate(); err == nil {
		t.Error("empty model accepted")
	}
	m = twoBusStation()
	m.Nodes = append(m.Nodes, Node{ID: 10})
	if _, err := m.Consolidate(); err == nil {
		t.Error("duplicate node accepted")
	}
	m = twoBusStation()
	m.Switches[0].A = 999
	if _, err := m.Consolidate(); err == nil {
		t.Error("switch to unknown node accepted")
	}
	m = twoBusStation()
	m.Branches[0].From = 999
	if _, err := m.Consolidate(); err == nil {
		t.Error("branch to unknown node accepted")
	}
	m = twoBusStation()
	m.Gens[0].Bus = 999
	if _, err := m.Consolidate(); err == nil {
		t.Error("gen on unknown node accepted")
	}
}

// TestStationClosedIsIEEE14: with its bus-section breaker closed, the
// example's station consolidates back to IEEE-14, bus numbers times ten.
func TestStationClosedIsIEEE14(t *testing.T) {
	n := grid.Case14()
	con, err := buildStation().Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	got := con.Network
	if got.N() != n.N() || len(got.Branches) != len(n.Branches) {
		t.Fatalf("%d buses and %d branches, want %d and %d", got.N(), len(got.Branches), n.N(), len(n.Branches))
	}
	for _, b := range n.Buses {
		i, ok := got.Index(b.ID * 10)
		if !ok {
			t.Fatalf("bus %d missing", b.ID*10)
		}
		if gb := got.Buses[i]; gb.Pd != b.Pd || gb.Type != b.Type {
			t.Fatalf("bus %d: load %v type %v, want %v and %v", b.ID, gb.Pd, gb.Type, b.Pd, b.Type)
		}
	}
	if !got.Connected() {
		t.Fatal("closed station disconnected")
	}
}

// TestStationSplitMovesBranches: opening the bus-section breaker splits
// bus 4 into its sections, each keeping its own circuits.
func TestStationSplitMovesBranches(t *testing.T) {
	m := buildStation()
	if err := m.SetSwitch("bus4-section", false); err != nil {
		t.Fatal(err)
	}
	con, err := m.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	n := con.Network
	if n.N() != 15 {
		t.Fatalf("%d buses, want 15", n.N())
	}
	if !n.Connected() {
		t.Fatal("split station should stay connected")
	}
	// The section each bus-4 circuit lands on, by its far end.
	section := map[int]int{50: 40, 70: 40, 20: 41, 30: 41, 90: 41}
	seen := 0
	for _, br := range n.Branches {
		for _, e := range [][2]int{{br.From, br.To}, {br.To, br.From}} {
			if e[0] == 40 || e[0] == 41 {
				seen++
				if section[e[1]] != e[0] {
					t.Errorf("branch %d-%d lands on section %d, want %d", br.From, br.To, e[0], section[e[1]])
				}
			}
		}
	}
	if seen != len(section) {
		t.Fatalf("%d circuits on bus 4's sections, want %d", seen, len(section))
	}
}
