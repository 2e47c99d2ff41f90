package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with GNNLAB_TRAIN_MAIN set, so tests can drive the CLI end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GNNLAB_TRAIN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestScaleBelowOneIsAnError: a scale factor below 1 exits non-zero with
// the loader's error, instead of training on the full-size preset.
func TestScaleBelowOneIsAnError(t *testing.T) {
	for _, scale := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-scale", scale, "-epochs", "1")
		cmd.Env = append(os.Environ(), "GNNLAB_TRAIN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("-scale %s: exit status 0, output:\n%s", scale, out)
			continue
		}
		if !strings.Contains(string(out), "scale factor "+scale) {
			t.Errorf("-scale %s: output lacks the scale error:\n%s", scale, out)
		}
		if strings.Contains(string(out), "epoch") {
			t.Errorf("-scale %s: trained anyway:\n%s", scale, out)
		}
	}
}
