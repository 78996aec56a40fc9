package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPUWritesProfile(t *testing.T) {
	stop, err := StartCPU("")
	if err != nil {
		t.Fatal(err)
	}
	stop()

	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err = StartCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile file: %v, size %d, want a non-empty file", err, st.Size())
	}

	if _, err := StartCPU(filepath.Join(t.TempDir(), "missing", "cpu.prof")); err == nil {
		t.Fatal("an uncreatable path was accepted")
	}
}
