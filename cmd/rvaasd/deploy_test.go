package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const linear40Spec = "../../internal/labspec/testdata/linear40.yml"

// syncBuffer lets the test read command output while a lab runs in a
// background goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func captureOut(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	prev := out
	out = buf
	t.Cleanup(func() { out = prev })
	return buf
}

func TestDeployValidateSmoke(t *testing.T) {
	buf := captureOut(t)
	if err := run([]string{"deploy", "-topo", linear40Spec, "-validate"}); err != nil {
		t.Fatalf("deploy -validate: %v", err)
	}
	got := buf.String()
	for _, want := range []string{
		`spec "linear-40-lab" valid`, "40 switches", "transport=udp", "3 invariants",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("validate output missing %q:\n%s", want, got)
		}
	}
}

func TestDeployValidateRejectsBadSpec(t *testing.T) {
	captureOut(t)
	bad := t.TempDir() + "/bad.yml"
	if err := os.WriteFile(bad, []byte("name: broken\ntopology:\n  generator: warp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"deploy", "-topo", bad, "-validate"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := run([]string{"deploy", "-validate"}); err == nil {
		t.Fatal("missing -topo accepted")
	}
}

func TestUnknownCommand(t *testing.T) {
	captureOut(t)
	for _, args := range [][]string{{"frobnicate"}, {"spec", "migrate", "-in", linear40Spec}} {
		if err := run(args); err == nil || exitCode(err) != exitUsage {
			t.Errorf("run(%q): err=%v code=%d, want %d", args, err, exitCode(err), exitUsage)
		}
	}
}

// TestOpsExitCodes locks the CLI's error-class -> exit-code contract
// without a running lab.
func TestOpsExitCodes(t *testing.T) {
	captureOut(t)
	if got := exitCode(nil); got != 0 {
		t.Errorf("exitCode(nil) = %d", got)
	}
	err := run([]string{"ops"})
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("missing verb: err=%v code=%d, want %d", err, exitCode(err), exitUsage)
	}
	err = run([]string{"ops", "teleport"})
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("unknown verb: code=%d, want %d", exitCode(err), exitUsage)
	}
	err = run([]string{"ops", "overview", "-addr", "127.0.0.1:1"})
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("retired -addr flag: code=%d, want %d", exitCode(err), exitUsage)
	}
	err = run([]string{"ops", "history", "notanumber"})
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("bad history id: code=%d, want %d", exitCode(err), exitUsage)
	}
	// 127.0.0.1:1 is reliably closed: transport failure, not an API error.
	err = run([]string{"ops", "overview", "-admin", "127.0.0.1:1", "-timeout", "2s"})
	if err == nil || exitCode(err) != exitConnect {
		t.Errorf("dead endpoint: err=%v code=%d, want %d", err, exitCode(err), exitConnect)
	}
}

// TestDeployOpsEndToEnd is the acceptance run: `rvaasd deploy` brings the
// linear-40 lab up over real UDP sockets (invariants registered through
// client agents), `rvaasd ops subs -filter status=violated -limit 50`
// paginates live state from the admin API, and a SIGINT tears the lab down
// in order.
func TestDeployOpsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up a 40-switch UDP lab")
	}
	buf := captureOut(t)

	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"deploy", "-topo", linear40Spec, "-admin", "127.0.0.1:0"})
	}()

	// The runner prints the bound admin address once the lab is up.
	addrRE := regexp.MustCompile(`admin API on http://(\S+)`)
	var addr string
	deadline := time.Now().Add(60 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("lab never came up; output:\n%s", buf.String())
		}
		select {
		case err := <-errCh:
			t.Fatalf("deploy exited early: %v\noutput:\n%s", err, buf.String())
		default:
		}
		if m := addrRE.FindStringSubmatch(buf.String()); m != nil {
			addr = m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The spec's isolation invariant is genuinely violated under all-pairs
	// routing, so the flagship ops query returns live violated state.
	if err := run([]string{"ops", "subs", "-admin", addr, "-filter", "status=violated", "-limit", "50"}); err != nil {
		t.Fatalf("ops subs: %v", err)
	}
	got := buf.String()
	if !strings.Contains(got, "isolation") || !strings.Contains(got, "violated") {
		t.Fatalf("violated listing missing the isolation invariant:\n%s", got)
	}

	// Cursor pagination against the live lab: page-size 2 over 3 invariants
	// needs a second page.
	if err := run([]string{"ops", "subs", "-admin", addr, "-limit", "2"}); err != nil {
		t.Fatalf("ops subs paged: %v", err)
	}
	if !strings.Contains(buf.String(), "next page: -cursor") {
		t.Fatalf("expected a continuation cursor with -limit 2:\n%s", buf.String())
	}
	if err := run([]string{"ops", "subs", "-admin", addr, "-limit", "2", "-all"}); err != nil {
		t.Fatalf("ops subs -all: %v", err)
	}

	// The rest of the ops surface against the live lab.
	for _, verb := range []string{"overview", "version", "shards", "sessions", "procs"} {
		if err := run([]string{"ops", verb, "-admin", addr}); err != nil {
			t.Fatalf("ops %s: %v", verb, err)
		}
	}
	if !strings.Contains(buf.String(), "api=v1") {
		t.Fatalf("ops version output missing api=v1:\n%s", buf.String())
	}
	if err := run([]string{"ops", "resync", "-admin", addr, "3"}); err != nil {
		t.Fatalf("ops resync: %v", err)
	}
	err := run([]string{"ops", "resync", "-admin", addr, "999"})
	if err == nil {
		t.Fatal("resync of unknown switch accepted")
	}
	if got := exitCode(err); got != exitNotFound {
		t.Fatalf("resync unknown switch: exit code %d, want %d (err %v)", got, exitNotFound, err)
	}

	// Signal-aware ordered shutdown.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("send SIGINT: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("deploy shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("lab did not shut down on SIGINT; output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "lab down") {
		t.Fatalf("missing shutdown confirmation:\n%s", buf.String())
	}

	// With the lab gone, ops calls fail with an actionable error.
	if err := run([]string{"ops", "overview", "-admin", addr}); err == nil {
		t.Fatal("ops against a stopped lab succeeded")
	} else if got := exitCode(err); got != exitConnect {
		t.Fatalf("ops against a stopped lab: exit code %d, want %d", got, exitConnect)
	}
}
