package main

import (
	"bytes"
	"os"
	"testing"
)

// TestFiguresMatchGoldens holds `traceviz -fig 2` and `-fig 3` to
// testdata/fig{2,3}.golden, byte for byte. The figures are traced runs of
// blocking rank bodies (internal/experiments/traces.go), and the goldens
// were generated at b6ec1ba, the last commit whose blocking runtime was
// written by hand: they are what keeps the blocking API's hosted form on
// that runtime's trajectory.
func TestFiguresMatchGoldens(t *testing.T) {
	for _, fig := range []string{"2", "3"} {
		want, err := os.ReadFile("testdata/fig" + fig + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", fig}, &stdout, &stderr); code != 0 {
			t.Fatalf("-fig %s: exit %d: %s", fig, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-fig %s differs from testdata/fig%s.golden:\n%s", fig, fig, stdout.String())
		}
	}
}

func TestUnknownFigureRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "9"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 || stderr.Len() == 0 {
		t.Errorf("-fig 9: exit %d, stdout %q, stderr %q; want exit 1 and only an error", code, stdout.String(), stderr.String())
	}
}
