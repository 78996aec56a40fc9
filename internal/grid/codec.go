package grid

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCase serializes a network in a simple line-oriented text format:
//
//	case <name> <baseMVA>
//	bus <id> <type> <Pd> <Qd> <Gs> <Bs> <Vm> <Va> <baseKV> <area>
//	branch <from> <to> <r> <x> <b> <tap> <shift> <status>
//	gen <bus> <Pg> <Qg> <Vset> <status>
//
// Comment lines start with '#'. Fields are whitespace separated.
func WriteCase(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "case %s %g\n", n.Name, n.BaseMVA)
	for _, b := range n.Buses {
		fmt.Fprintf(bw, "bus %d %d %g %g %g %g %g %g %g %d\n",
			b.ID, int(b.Type), b.Pd, b.Qd, b.Gs, b.Bs, b.Vm, b.Va, b.BaseKV, b.Area)
	}
	for _, br := range n.Branches {
		status := 0
		if br.Status {
			status = 1
		}
		fmt.Fprintf(bw, "branch %d %d %g %g %g %g %g %d\n",
			br.From, br.To, br.R, br.X, br.B, br.Tap, br.Shift, status)
	}
	for _, g := range n.Gens {
		status := 0
		if g.Status {
			status = 1
		}
		fmt.Fprintf(bw, "gen %d %g %g %g %d\n", g.Bus, g.Pg, g.Qg, g.Vset, status)
	}
	return bw.Flush()
}

// ReadCase parses the format written by WriteCase.
func ReadCase(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var (
		name     string
		baseMVA  float64
		buses    []Bus
		branches []Branch
		gens     []Gen
		lineNo   int
		gotCase  bool
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(err error) (*Network, error) {
			return nil, fmt.Errorf("grid: line %d: %w", lineNo, err)
		}
		switch f[0] {
		case "case":
			if len(f) != 3 {
				return fail(fmt.Errorf("case needs 2 fields, got %d", len(f)-1))
			}
			name = f[1]
			v, err := parseFloat(f[2])
			if err != nil {
				return fail(err)
			}
			baseMVA = v
			gotCase = true
		case "bus":
			if len(f) != 11 {
				return fail(fmt.Errorf("bus needs 10 fields, got %d", len(f)-1))
			}
			vals, err := parseFloats(f[1:])
			if err != nil {
				return fail(err)
			}
			buses = append(buses, Bus{
				ID: int(vals[0]), Type: BusType(int(vals[1])),
				Pd: vals[2], Qd: vals[3], Gs: vals[4], Bs: vals[5],
				Vm: vals[6], Va: vals[7], BaseKV: vals[8], Area: int(vals[9]),
			})
		case "branch":
			if len(f) != 9 {
				return fail(fmt.Errorf("branch needs 8 fields, got %d", len(f)-1))
			}
			vals, err := parseFloats(f[1:])
			if err != nil {
				return fail(err)
			}
			branches = append(branches, Branch{
				From: int(vals[0]), To: int(vals[1]),
				R: vals[2], X: vals[3], B: vals[4], Tap: vals[5], Shift: vals[6],
				Status: vals[7] != 0,
			})
		case "gen":
			if len(f) != 6 {
				return fail(fmt.Errorf("gen needs 5 fields, got %d", len(f)-1))
			}
			vals, err := parseFloats(f[1:])
			if err != nil {
				return fail(err)
			}
			gens = append(gens, Gen{
				Bus: int(vals[0]), Pg: vals[1], Qg: vals[2], Vset: vals[3],
				Status: vals[4] != 0,
			})
		default:
			return fail(fmt.Errorf("unknown record %q", f[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("grid: reading case: %w", err)
	}
	if !gotCase {
		return nil, fmt.Errorf("grid: missing 'case' header")
	}
	return New(name, baseMVA, buses, branches, gens)
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, s := range fields {
		v, err := parseFloat(s)
		if err != nil {
			return nil, fmt.Errorf("field %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseFloat is strconv.ParseFloat that also refuses NaN and ±Inf, which
// no field of a case can mean: a NaN load would reach the power flow.
func parseFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}

// ByName returns a built-in case by name ("ieee14", "ieee30", "ieee118").
func ByName(name string) (*Network, error) {
	switch name {
	case "ieee14", "case14", "14":
		return Case14(), nil
	case "ieee30", "case30", "30":
		return Case30(), nil
	case "ieee118", "case118", "118":
		return Case118(), nil
	default:
		return nil, fmt.Errorf("grid: unknown case %q (have ieee14, ieee30, ieee118)", name)
	}
}
