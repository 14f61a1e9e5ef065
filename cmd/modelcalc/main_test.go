package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestDefaultMatchesGolden holds the default output — the Eq. 1-4 lines,
// the memory bounds and both optima — to testdata/default.golden, byte for
// byte.
func TestDefaultMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/default.golden:\n%s", stdout.String())
	}
}

// TestInvalidParamsRefused: parameters the model refuses exit 2 with
// model.Params.Validate's error and print no prediction.
func TestInvalidParamsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-alpha", "1.5"}, &stdout, &stderr); code != 2 {
		t.Errorf("-alpha 1.5: exit %d, want 2", code)
	}
	if want := "model: alpha 1.5 outside (0,1)\n"; stderr.String() != want {
		t.Errorf("-alpha 1.5: stderr %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("-alpha 1.5: wrote %q to stdout", stdout.String())
	}
	if code := run([]string{"-gain", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("-gain x: exit %d, want 2", code)
	}
	// A gain that is not a positive speedup is refused, not dropped.
	for _, g := range []string{"0", "-3"} {
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"-gain", g}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-gain") {
			t.Errorf("-gain %s: exit %d, stdout %q, stderr %q; want exit 2 and only an error naming -gain", g, code, stdout.String(), stderr.String())
		}
	}
	// A stray argument ends flag parsing; it used to be ignored with exit 0.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"extra", "-alpha", "0.25"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `"extra"`) {
		t.Errorf("extra: exit %d, stdout %q, stderr %q; want exit 2 and only an error naming it", code, stdout.String(), stderr.String())
	}
}

// TestGainBelowOneApplied: -gain divides T'W1 whatever its value, so a
// gain of 0.5 doubles Eq. 2's Op1 term (TW1/alpha = 800ms by default).
func TestGainBelowOneApplied(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gain", "0.5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "Eq. 2 ") {
			if !strings.HasSuffix(line, " 1.600s") {
				t.Errorf("-gain 0.5: %q, want Td 1.600s", line)
			}
			return
		}
	}
	t.Errorf("-gain 0.5: no Eq. 2 line in %q", stdout.String())
}
