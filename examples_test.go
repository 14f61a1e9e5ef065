package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesMatchExpected builds every example once and holds each one's
// stdout to the expected.txt beside it, byte for byte: the examples are the
// walkthroughs a reader runs, and the simulator is deterministic. An
// intended change of output regenerates the file in the same commit.
func TestExamplesMatchExpected(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, m := range mains {
		dir := filepath.Dir(m)
		want, err := os.ReadFile(filepath.Join(dir, "expected.txt"))
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		got, err := exec.Command(filepath.Join(bin, filepath.Base(dir))).Output()
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stdout differs from expected.txt\n--- want ---\n%s--- got ---\n%s", dir, want, got)
		}
	}
}
