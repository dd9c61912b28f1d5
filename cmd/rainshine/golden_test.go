package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rainshine"
)

// TestGoldenTranscripts runs the seed-42 commands behind the committed
// transcripts in docs/ and compares their output byte for byte. One
// study serves all five commands: each output is a pure function of the
// study, so sharing it (and its memo) must not change a byte.
func TestGoldenTranscripts(t *testing.T) {
	var shared *rainshine.Study
	newStudy := func(opts ...rainshine.Option) (*rainshine.Study, error) {
		if shared == nil {
			s, err := rainshine.NewStudy(opts...)
			if err != nil {
				return nil, err
			}
			shared = s
		}
		return shared, nil
	}
	runCmd := func(cmd string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := runWith([]string{"-seed", "42", cmd}, &buf, newStudy); err != nil {
			t.Fatalf("rainshine -seed 42 %s: %v", cmd, err)
		}
		return buf.String()
	}
	checkGolden(t, "paper_run_seed42.txt", runCmd("all"))
	var ext []string
	for _, cmd := range []string{"ablate", "pooling", "opex", "predict"} {
		ext = append(ext, runCmd(cmd))
	}
	checkGolden(t, "extensions_seed42.txt", strings.Join(ext, "\n"))
}

// checkGolden reports the first line where got departs from the named
// transcript.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "docs", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s differs from the CLI output at line %d:\n  file: %q\n  now:  %q\n"+
				"if the change is intended, regenerate with `make repro` and review the diff",
				path, i+1, wl, gl)
			return
		}
	}
}
