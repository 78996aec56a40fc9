package main

import (
	"bytes"
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

// TestRoundsNeedInProcess: the testbed flows run one Step-2 round, so
// -rounds N without -inprocess (or -frames) is refused by name instead of
// quietly running one round; with -inprocess it runs.
func TestRoundsNeedInProcess(t *testing.T) {
	for _, args := range [][]string{
		{"-case", "ieee30", "-subsystems", "3", "-rounds", "3"},
		{"-case", "ieee30", "-subsystems", "3", "-rounds", "3", "-hierarchical"},
	} {
		stdout, stderr, err := runDSE(t, args...)
		if err == nil || !strings.Contains(stderr, "-rounds 3 needs -inprocess") {
			t.Errorf("dse %v: err %v, stderr %q; want a usage error naming -rounds", args, err, stderr)
		}
		if strings.Contains(stdout, "accuracy vs truth") {
			t.Errorf("dse %v ran anyway:\n%s", args, stdout)
		}
	}
	stdout, stderr, err := runDSE(t, "-case", "ieee30", "-subsystems", "3", "-rounds", "3", "-inprocess")
	if err != nil || !strings.Contains(stdout, "accuracy vs truth") {
		t.Errorf("dse -rounds 3 -inprocess: %v\n%s%s", err, stdout, stderr)
	}
	stdout, stderr, err = runDSE(t, "-case", "ieee30", "-subsystems", "3", "-clusters", "2")
	if err != nil || !strings.Contains(stdout, "middleware: ") {
		t.Errorf("dse on the testbed: %v\n%s%s", err, stdout, stderr)
	}
}
