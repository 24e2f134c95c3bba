package main

import (
	"strings"
	"testing"
)

// TestRunBadFlags: flags with no command in front of them name nothing to
// run, so rvaasd prints its usage and fails as a usage error.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{nil, {"-topo", "nonsense"}, {"-topo", "linear", "-size", "3"}} {
		buf := captureOut(t)
		err := run(args)
		if err == nil || exitCode(err) != exitUsage {
			t.Errorf("run(%q): err=%v code=%d, want %d", args, err, exitCode(err), exitUsage)
		}
		if !strings.Contains(buf.String(), "usage:") {
			t.Errorf("run(%q) printed no usage: %q", args, buf.String())
		}
	}
}
