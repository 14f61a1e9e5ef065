package main

import (
	"bytes"
	"os"
	"strings"
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

// TestUnknownFigureRefused: an unknown figure fails (exit 1); a stray
// argument, which ends flag parsing, and a width below one column are
// refused before any rendering (exit 2). The last three used to render
// the figure at the default width with exit 0.
func TestUnknownFigureRefused(t *testing.T) {
	for _, c := range []struct {
		args  []string
		code  int
		names string
	}{
		{[]string{"-fig", "9"}, 1, "9"},
		{[]string{"-fig", "2", "extra"}, 2, `"extra"`},
		{[]string{"-width", "0"}, 2, "-width"},
		{[]string{"-width", "-5"}, 2, "-width"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.names) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and only an error naming %s", c.args, code, stdout.String(), stderr.String(), c.code, c.names)
		}
	}
}
