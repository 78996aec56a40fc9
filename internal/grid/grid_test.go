package grid

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCase14Shape(t *testing.T) {
	n := Case14()
	if n.N() != 14 {
		t.Fatalf("buses = %d, want 14", n.N())
	}
	if len(n.Branches) != 20 {
		t.Fatalf("branches = %d, want 20", len(n.Branches))
	}
	if len(n.Gens) != 5 {
		t.Fatalf("gens = %d, want 5", len(n.Gens))
	}
	if !n.Connected() {
		t.Fatal("case14 must be connected")
	}
	p, q := n.TotalLoad()
	if math.Abs(p-259.0) > 1e-9 {
		t.Errorf("total P load = %v, want 259", p)
	}
	if math.Abs(q-73.5) > 1e-9 {
		t.Errorf("total Q load = %v, want 73.5", q)
	}
}

func TestCase30Shape(t *testing.T) {
	n := Case30()
	if n.N() != 30 || len(n.Branches) != 41 || len(n.Gens) != 6 {
		t.Fatalf("shape = %d buses, %d branches, %d gens", n.N(), len(n.Branches), len(n.Gens))
	}
	if !n.Connected() {
		t.Fatal("case30 must be connected")
	}
	p, _ := n.TotalLoad()
	if math.Abs(p-283.4) > 1e-6 {
		t.Errorf("total P load = %v, want 283.4", p)
	}
}

func TestCase118Shape(t *testing.T) {
	n := Case118()
	if n.N() != 118 {
		t.Fatalf("buses = %d, want 118", n.N())
	}
	if len(n.Branches) != 186 {
		t.Fatalf("branches = %d, want 186", len(n.Branches))
	}
	if len(n.Gens) != 54 {
		t.Fatalf("gens = %d, want 54", len(n.Gens))
	}
	if !n.Connected() {
		t.Fatal("case118 must be connected")
	}
	if n.Buses[n.SlackIndex()].ID != 69 {
		t.Errorf("slack bus = %d, want 69", n.Buses[n.SlackIndex()].ID)
	}
	p, _ := n.TotalLoad()
	if p < 4000 || p > 4500 {
		t.Errorf("total P load = %v, want ~4242", p)
	}
}

func TestNewValidation(t *testing.T) {
	buses := []Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1}}
	cases := []struct {
		name     string
		buses    []Bus
		branches []Branch
		gens     []Gen
	}{
		{"duplicate bus", []Bus{{ID: 1, Type: Slack}, {ID: 1, Type: PQ}}, nil, nil},
		{"unknown branch bus", buses, []Branch{{From: 1, To: 9, Status: true}}, nil},
		{"self loop", buses, []Branch{{From: 1, To: 1, Status: true}}, nil},
		{"unknown gen bus", buses, nil, []Gen{{Bus: 7}}},
		{"no slack", []Bus{{ID: 1, Type: PQ}, {ID: 2, Type: PQ}}, nil, nil},
		{"two slacks", []Bus{{ID: 1, Type: Slack}, {ID: 2, Type: Slack}}, nil, nil},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, 100, tc.buses, tc.branches, tc.gens); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New("bad base", -1, buses, nil, nil); err == nil {
		t.Error("negative base MVA accepted")
	}
}

func TestIndexLookups(t *testing.T) {
	n := Case14()
	i, ok := n.Index(9)
	if !ok || n.Buses[i].ID != 9 {
		t.Fatalf("Index(9) = %d,%v", i, ok)
	}
	if _, ok := n.Index(99); ok {
		t.Fatal("Index(99) should not exist")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex(99) should panic")
		}
	}()
	n.MustIndex(99)
}

// TestIndexDenseAndSparseNumbering: Index resolves every bus number and no
// other, through the dense array where the numbers span at most denseSpan
// per bus (negative ones included) and through the map where they do not:
// numbers in the gaps, one past either end and the extremes of int are
// unknown either way.
func TestIndexDenseAndSparseNumbering(t *testing.T) {
	for _, c := range []struct {
		ids   []int
		dense bool
	}{
		{[]int{9, 5, 7, 20}, true},
		{[]int{-3, 2, -1}, true},
		{[]int{1, 1000000}, false},
		{[]int{math.MinInt, math.MaxInt}, false},
	} {
		buses := make([]Bus, len(c.ids))
		for i, id := range c.ids {
			buses[i] = Bus{ID: id, Type: PQ, Vm: 1}
		}
		buses[0].Type = Slack
		n, err := New("numbering", 100, buses, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (n.dense != nil) != c.dense {
			t.Errorf("%v: dense index %v, want %v", c.ids, n.dense != nil, c.dense)
		}
		known := map[int]bool{}
		for i, id := range c.ids {
			known[id] = true
			if got, ok := n.Index(id); !ok || got != i {
				t.Errorf("%v: Index(%d) = %d, %v, want %d", c.ids, id, got, ok, i)
			}
		}
		lo, hi := slices.Min(c.ids), slices.Max(c.ids)
		for _, id := range []int{lo - 1, hi + 1, lo + 1, hi - 1, 0, 6, math.MinInt, math.MaxInt} {
			if _, ok := n.Index(id); ok != known[id] {
				t.Errorf("%v: Index(%d) reports %v, want %v", c.ids, id, ok, known[id])
			}
		}
	}
}

func TestIslands(t *testing.T) {
	buses := []Bus{
		{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1},
		{ID: 3, Type: PQ, Vm: 1}, {ID: 4, Type: PQ, Vm: 1},
	}
	branches := []Branch{
		{From: 1, To: 2, X: 0.1, Status: true},
		{From: 3, To: 4, X: 0.1, Status: true},
	}
	n, err := New("islands", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	islands := n.Islands()
	if len(islands) != 2 || len(islands[0]) != 2 || len(islands[1]) != 2 {
		t.Fatalf("islands = %v", islands)
	}
	if n.Connected() {
		t.Fatal("network with two islands reported connected")
	}
}

func TestOutOfServiceBranchIgnored(t *testing.T) {
	buses := []Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1}}
	branches := []Branch{{From: 1, To: 2, X: 0.1, Status: false}}
	n, err := New("oos", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Connected() {
		t.Fatal("out-of-service branch should not connect buses")
	}
	if len(n.InService()) != 0 {
		t.Fatal("InService should be empty")
	}
}

func TestAdjacencyNoDuplicates(t *testing.T) {
	n := Case118()
	adj := n.Adjacency()
	for i, nbrs := range adj {
		for k := 1; k < len(nbrs); k++ {
			if nbrs[k-1] >= nbrs[k] {
				t.Fatalf("bus %d adjacency not strictly sorted: %v", i, nbrs)
			}
		}
	}
	// Parallel circuits (e.g. 42-49 double) must appear once.
	i42 := n.MustIndex(42)
	i49 := n.MustIndex(49)
	count := 0
	for _, v := range adj[i42] {
		if v == i49 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("42-49 appears %d times in adjacency", count)
	}
}

// mapAdjacency is the map-deduplicated adjacency build that Adjacency
// replaced; it pins the flat-array build's rows.
func mapAdjacency(n *Network) [][]int {
	adj := make([][]int, n.N())
	seen := make(map[[2]int]bool)
	for _, br := range n.InService() {
		f, t := n.idx[br.From], n.idx[br.To]
		if f > t {
			f, t = t, f
		}
		if seen[[2]int{f, t}] {
			continue
		}
		seen[[2]int{f, t}] = true
		adj[f] = append(adj[f], t)
		adj[t] = append(adj[t], f)
	}
	for i := range adj {
		slices.Sort(adj[i])
	}
	return adj
}

func TestAdjacencyMatchesMapBuild(t *testing.T) {
	wecc, err := SynthWECC(SynthOptions{Areas: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// IEEE-118 with one circuit of the parallel pair 42-49 out (the pair
	// stays adjacent) and the single branch 8-9 out.
	outage := Case118()
	for _, out := range [][2]int{{42, 49}, {8, 9}} {
		k := slices.IndexFunc(outage.Branches, func(br Branch) bool { return br.From == out[0] && br.To == out[1] })
		if k < 0 {
			t.Fatalf("no branch %d-%d", out[0], out[1])
		}
		outage.Branches[k].Status = false
	}
	for name, n := range map[string]*Network{
		"ieee14": Case14(), "ieee30": Case30(), "ieee118": Case118(),
		"ieee118-outage": outage, "synth-wecc-12": wecc,
	} {
		got, want := n.Adjacency(), mapAdjacency(n)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: bus %d neighbors %v, want %v", name, i, got[i], want[i])
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: bus %d row has spare capacity %d", name, i, cap(got[i])-len(got[i]))
			}
		}
	}
}

func TestNetInjections(t *testing.T) {
	n := Case14()
	p, q := n.NetInjections()
	i1 := n.MustIndex(1)
	if math.Abs(p[i1]-2.324) > 1e-9 {
		t.Errorf("slack P injection = %v, want 2.324 pu", p[i1])
	}
	i2 := n.MustIndex(2)
	if math.Abs(p[i2]-(40.0-21.7)/100) > 1e-9 {
		t.Errorf("bus2 P injection = %v", p[i2])
	}
	i9 := n.MustIndex(9)
	if math.Abs(q[i9]-(-0.166)) > 1e-9 {
		t.Errorf("bus9 Q injection = %v", q[i9])
	}
}

func TestYBusRowSumsZeroForLosslessLine(t *testing.T) {
	// Single untapped line with no shunt: row sums of Y must be 0
	// (Kirchhoff), since Yff = -Yft = ys.
	buses := []Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1}}
	branches := []Branch{{From: 1, To: 2, R: 0.02, X: 0.1, Status: true}}
	n, err := New("2bus", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := BuildYBus(n)
	for i := 0; i < 2; i++ {
		var sg, sb float64
		y.Row(i, func(j int, g, b float64) { sg += g; sb += b })
		if math.Abs(sg) > 1e-12 || math.Abs(sb) > 1e-12 {
			t.Fatalf("row %d sums: g=%v b=%v", i, sg, sb)
		}
	}
}

func TestYBusKnownTwoBusValues(t *testing.T) {
	buses := []Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1}}
	branches := []Branch{{From: 1, To: 2, R: 0.0, X: 0.5, B: 0.2, Status: true}}
	n, _ := New("2bus", 100, buses, branches, nil)
	y := BuildYBus(n)
	g, b := y.At(0, 0)
	if math.Abs(g) > 1e-12 || math.Abs(b-(-2+0.1)) > 1e-12 {
		t.Fatalf("Y(0,0) = %v+j%v, want 0-j1.9", g, b)
	}
	g, b = y.At(0, 1)
	if math.Abs(g) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Fatalf("Y(0,1) = %v+j%v, want 0+j2", g, b)
	}
}

func TestYBusSymmetricWithoutShifters(t *testing.T) {
	n := Case118()
	y := BuildYBus(n)
	for i := 0; i < y.N; i++ {
		y.Row(i, func(j int, g, b float64) {
			if j < i {
				return
			}
			gt, bt := y.At(j, i)
			// Off-nominal taps break G/B symmetry only via the tap factor on
			// one side; Yft and Ytf remain equal when shift = 0.
			if math.Abs(g-gt) > 1e-9 || math.Abs(b-bt) > 1e-9 {
				t.Fatalf("Y not symmetric at (%d,%d): %v+j%v vs %v+j%v", i, j, g, b, gt, bt)
			}
		})
	}
}

func TestYBusPhaseShifterAsymmetry(t *testing.T) {
	buses := []Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1}}
	branches := []Branch{{From: 1, To: 2, X: 0.1, Shift: 0.1, Status: true}}
	n, _ := New("shifter", 100, buses, branches, nil)
	y := BuildYBus(n)
	g12, b12 := y.At(0, 1)
	g21, b21 := y.At(1, 0)
	if math.Abs(g12-g21) < 1e-12 && math.Abs(b12-b21) < 1e-12 {
		t.Fatal("phase shifter should make Y asymmetric")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []*Network{Case14(), Case30(), Case118()} {
		var buf bytes.Buffer
		if err := WriteCase(&buf, n); err != nil {
			t.Fatalf("%s: write: %v", n.Name, err)
		}
		got, err := ReadCase(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", n.Name, err)
		}
		if got.N() != n.N() || len(got.Branches) != len(n.Branches) || len(got.Gens) != len(n.Gens) {
			t.Fatalf("%s: round trip shape mismatch", n.Name)
		}
		for i := range n.Buses {
			if got.Buses[i] != n.Buses[i] {
				t.Fatalf("%s: bus %d mismatch: %+v vs %+v", n.Name, i, got.Buses[i], n.Buses[i])
			}
		}
		for i := range n.Branches {
			if got.Branches[i] != n.Branches[i] {
				t.Fatalf("%s: branch %d mismatch", n.Name, i)
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	bad := []string{
		"bus 1 1 0 0 0 0 1 0 132 0",             // missing case header
		"case x 100\nbus 1",                     // short bus record
		"case x 100\nfrobnicate 1 2 3",          // unknown record
		"case x 100\nbus 1 1 z 0 0 0 1 0 132 0", // bad float
	}
	for _, s := range bad {
		if _, err := ReadCase(strings.NewReader(s)); err == nil {
			t.Errorf("input %q: expected error", s)
		}
	}
}

// TestReadCaseRejectsNonFinite: a NaN or ±Inf field of any record fails the
// read and names its line. IEEE-14 with a NaN load at bus 4 used to read
// cleanly and solve to NaN voltages reported as converged.
func TestReadCaseRejectsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCase(&buf, Case14()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prefix string // the first line starting with it is edited
		field  int
		value  string
	}{
		{"bus 4 ", 3, "NaN"}, {"branch 1 2 ", 4, "+Inf"}, {"gen ", 2, "-inf"}, {"case ", 2, "nan"},
	} {
		lines := strings.Split(buf.String(), "\n")
		k := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, c.prefix) })
		f := strings.Fields(lines[k])
		f[c.field] = c.value
		lines[k] = strings.Join(f, " ")
		_, err := ReadCase(strings.NewReader(strings.Join(lines, "\n")))
		if want := fmt.Sprintf("line %d: ", k+1); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%q with %s read with error %v, want a non-finite value on %q", c.prefix, c.value, err, want)
		}
	}
}

// FuzzReadCase: no input panics the case reader, and a case it accepts
// writes out and reads back as the same network. %v prints a float as the
// shortest decimal that parses back to it, and the reader refuses NaN, so
// networks that print alike are equal field for field. Its admittance
// matrix is the sorted term list's (sortedYBus) bit for bit. The seeds are the
// three IEEE cases, a two-bus case, whose mutations reach every record
// quickly, and the same case with a NaN load.
func FuzzReadCase(f *testing.F) {
	for _, n := range []*Network{Case14(), Case30(), Case118()} {
		var buf bytes.Buffer
		if err := WriteCase(&buf, n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("case two 100\nbus 1 3 0 0 0 0 1 0 138 1\nbus 2 1 10 5 0 0 1 0 138 1\nbranch 1 2 0.01 0.1 0.02 0 0 1\ngen 1 10 0 1.02 1\n"))
	f.Add([]byte("case two 100\nbus 1 3 0 0 0 0 1 0 138 1\nbus 2 1 NaN 5 0 0 1 0 138 1\nbranch 1 2 0.01 0.1 0.02 0 0 1\ngen 1 10 0 1.02 1\n"))
	show := func(n *Network) string {
		return fmt.Sprintf("%q %v %v %v %v", n.Name, n.BaseMVA, n.Buses, n.Branches, n.Gens)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ReadCase(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCase(&buf, n); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCase(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("an accepted case does not read back: %v\n%s", err, buf.Bytes())
		}
		if got, want := show(back), show(n); got != want {
			t.Fatalf("round trip changed the network:\n%s\nread back as\n%s", want, got)
		}
		requireYBusBitwise(t, n.Name, BuildYBus(n), sortedYBus(n))
	})
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ieee14", "ieee30", "ieee118", "14", "118"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := Case14()
	c := n.Clone()
	c.Buses[0].Pd = 999
	if n.Buses[0].Pd == 999 {
		t.Fatal("Clone shares bus storage")
	}
}

func TestGenAt(t *testing.T) {
	n := Case14()
	i1 := n.MustIndex(1)
	gs := n.GenAt(i1)
	if len(gs) != 1 || n.Gens[gs[0]].Bus != 1 {
		t.Fatalf("GenAt(bus1) = %v", gs)
	}
	i4 := n.MustIndex(4)
	if len(n.GenAt(i4)) != 0 {
		t.Fatal("bus 4 has no generator")
	}
}

func TestBusTypeString(t *testing.T) {
	if PQ.String() != "PQ" || PV.String() != "PV" || Slack.String() != "slack" {
		t.Fatal("BusType.String")
	}
	if BusType(9).String() != "BusType(9)" {
		t.Fatal("unknown BusType.String")
	}
}

// Property: the case codec round-trips random networks exactly.
func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 2 + rng.Intn(20)
		buses := make([]Bus, nb)
		for i := range buses {
			buses[i] = Bus{
				ID: i*3 + 1, Type: PQ,
				Pd: rng.Float64() * 50, Qd: rng.Float64() * 20,
				Gs: rng.Float64(), Bs: rng.Float64() * 10,
				Vm: 0.95 + 0.1*rng.Float64(), Va: rng.NormFloat64() * 0.2,
				BaseKV: 138, Area: rng.Intn(4),
			}
		}
		buses[0].Type = Slack
		var branches []Branch
		for i := 1; i < nb; i++ {
			branches = append(branches, Branch{
				From: buses[rng.Intn(i)].ID, To: buses[i].ID,
				R: rng.Float64() * 0.05, X: 0.01 + rng.Float64()*0.2,
				B: rng.Float64() * 0.1, Tap: 0.9 + rng.Float64()*0.2,
				Shift: rng.NormFloat64() * 0.1, Status: rng.Intn(2) == 0,
			})
		}
		gens := []Gen{{Bus: buses[0].ID, Pg: rng.Float64() * 100, Vset: 1.02, Status: true}}
		n, err := New("prop", 100, buses, branches, gens)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCase(&buf, n); err != nil {
			return false
		}
		back, err := ReadCase(&buf)
		if err != nil {
			return false
		}
		if back.N() != n.N() || len(back.Branches) != len(n.Branches) {
			return false
		}
		for i := range n.Buses {
			if back.Buses[i] != n.Buses[i] {
				return false
			}
		}
		for i := range n.Branches {
			if back.Branches[i] != n.Branches[i] {
				return false
			}
		}
		for i := range n.Gens {
			if back.Gens[i] != n.Gens[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
