package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// dseAsCommand, set in the environment of a re-executed test binary, makes
// it run main on its arguments: the tests below drive the command itself.
const dseAsCommand = "DSE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(dseAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runDSE(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), dseAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestRoundsOnTheTestbed: -rounds N runs N Step-2 rounds wherever the
// estimators sit — on the testbed every extra round is more middleware
// messages — and is refused by name only with -hierarchical, which has no
// Step 2, instead of quietly running none.
func TestRoundsOnTheTestbed(t *testing.T) {
	args := []string{"-case", "ieee30", "-subsystems", "3", "-clusters", "2"}
	stdout, stderr, err := runDSE(t, append(args, "-rounds", "3", "-hierarchical")...)
	if err == nil || !strings.Contains(stderr, "-rounds 3 cannot be combined with -hierarchical") {
		t.Errorf("dse -rounds 3 -hierarchical: err %v, stderr %q; want a usage error naming -rounds", err, stderr)
	}
	if strings.Contains(stdout, "accuracy vs truth") {
		t.Errorf("dse -rounds 3 -hierarchical ran anyway:\n%s", stdout)
	}
	stdout, stderr, err = runDSE(t, append(args, "-rounds", "3", "-inprocess")...)
	if err != nil || !strings.Contains(stdout, "accuracy vs truth") {
		t.Errorf("dse -rounds 3 -inprocess: %v\n%s%s", err, stdout, stderr)
	}
	messages := func(extra ...string) int {
		stdout, stderr, err := runDSE(t, append(args, extra...)...)
		_, line, found := strings.Cut(stdout, "middleware: ")
		var n int
		if _, scanErr := fmt.Sscanf(line, "%d messages", &n); err != nil || !found || scanErr != nil {
			t.Fatalf("dse %v on the testbed: %v, middleware line %q\n%s%s", extra, err, line, stdout, stderr)
		}
		return n
	}
	if one, three := messages("-rounds", "1"), messages("-rounds", "3"); one == 0 || three <= one {
		t.Errorf("testbed runs moved %d middleware messages at -rounds 1 and %d at -rounds 3", one, three)
	}
}

// TestFramesOnTheTestbed: without -inprocess, -frames N serves N frames on
// the testbed, one line each, every frame moving the same middleware
// messages; the summary lines describe the last frame.
func TestFramesOnTheTestbed(t *testing.T) {
	stdout, stderr, err := runDSE(t, "-case", "ieee30", "-subsystems", "3", "-clusters", "2", "-frames", "3")
	if err != nil {
		t.Fatalf("dse -frames 3: %v\n%s%s", err, stdout, stderr)
	}
	for _, want := range []string{"frame 0: map=", "frame 2: map=", "middleware: ", "accuracy vs truth"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dse -frames 3 printed no %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "GN iters") {
		t.Errorf("dse -frames 3 ran the in-process tracker:\n%s", stdout)
	}
}

// TestRefusedFlagCombinations: a flag that names something the chosen flow
// does not have is a usage error naming it, never dropped quietly.
func TestRefusedFlagCombinations(t *testing.T) {
	args := []string{"-case", "ieee30", "-subsystems", "3", "-clusters", "2"}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-hierarchical", "-inprocess"}, "-hierarchical cannot be combined with -inprocess"},
		{[]string{"-hierarchical", "-inprocess", "-frames", "2"}, "-hierarchical cannot be combined with -inprocess"},
		{[]string{"-refine"}, "-refine needs -hierarchical"},
		{[]string{"-refine", "-inprocess"}, "-refine needs -hierarchical"},
		{[]string{"-nomapping", "-inprocess"}, "-nomapping cannot be combined with -inprocess"},
		{[]string{"-shaped", "-inprocess"}, "-shaped cannot be combined with -inprocess"},
	} {
		stdout, stderr, err := runDSE(t, append(args, c.flags...)...)
		if err == nil || !strings.Contains(stderr, c.want) {
			t.Errorf("dse %v: err %v, stderr %q; want a usage error %q", c.flags, err, stderr, c.want)
		}
		if strings.Contains(stdout, "accuracy vs truth") {
			t.Errorf("dse %v ran anyway:\n%s", c.flags, stdout)
		}
	}
}

// TestHierarchicalNoMapping: -nomapping reaches the coordinator flow, which
// ships every subsystem's own-bus states up wherever the subsystem solves.
func TestHierarchicalNoMapping(t *testing.T) {
	stdout, stderr, err := runDSE(t, "-hierarchical", "-nomapping")
	if err != nil {
		t.Fatalf("dse -hierarchical -nomapping: %v\n%s%s", err, stdout, stderr)
	}
	for _, want := range []string{"2940 bytes to coordinator", "accuracy vs truth"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dse -hierarchical -nomapping printed no %q:\n%s", want, stdout)
		}
	}
}

// TestHierarchicalShapedRefined: -shaped reaches the coordinator flow's
// links, and -refine its boundary system, frame after frame on one
// decomposition.
func TestHierarchicalShapedRefined(t *testing.T) {
	stdout, stderr, err := runDSE(t, "-case", "ieee30", "-subsystems", "3", "-clusters", "2", "-hierarchical", "-refine", "-shaped", "-frames", "2")
	if err != nil {
		t.Fatalf("dse -hierarchical -refine -shaped: %v\n%s%s", err, stdout, stderr)
	}
	for _, want := range []string{"frame 0: hierarchical run", "frame 1: hierarchical run", "(refine=true)", "accuracy vs truth"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dse -hierarchical -refine -shaped printed no %q:\n%s", want, stdout)
		}
	}
}
