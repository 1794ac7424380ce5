// Package testutil holds shared test harness pieces. Its centerpiece
// is the goroutine-leak checker: a stdlib-only stand-in for
// go.uber.org/goleak that a test package adopts with one TestMain
// line, proving at exit that every readLoop, heartbeat loop and
// tracker goroutine the tests started has terminated.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakWait bounds how long VerifyTestMain waits for goroutines wound
// down by deferred cleanup (connection readLoops draining, trackers
// stopping) to actually exit before declaring them leaked.
const leakWait = 10 * time.Second

// leakPoll is the interval between goroutine-dump snapshots while
// waiting.
const leakPoll = 50 * time.Millisecond

// defaultIgnores are substrings of goroutine stacks that never count
// as leaks: the test framework itself, signal handling, and the
// checker's own goroutine.
var defaultIgnores = []string{
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
	"runtime.runfinq",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"testutil.VerifyTestMain",
	"testutil.leakedGoroutines",
}

// VerifyTestMain runs the package's tests and then verifies that no
// non-allowlisted goroutines survive. Use it as the whole TestMain:
//
//	func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
//
// On leaks it prints each surviving goroutine's stack and exits
// non-zero. When the tests themselves failed, their exit code is
// passed through and the leak check is skipped — goroutines stranded
// mid-failure would only bury the real report.
func VerifyTestMain(m *testing.M) {
	code := m.Run()
	if code != 0 {
		os.Exit(code)
	}
	deadline := time.Now().Add(leakWait)
	var leaked []string
	for {
		leaked = leakedGoroutines(defaultIgnores)
		if len(leaked) == 0 {
			os.Exit(code)
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(leakPoll)
	}
	fmt.Fprintf(os.Stderr, "testutil: %d goroutine(s) leaked after %v:\n\n", len(leaked), leakWait)
	for _, g := range leaked {
		fmt.Fprintf(os.Stderr, "%s\n\n", g)
	}
	os.Exit(1)
}

// leakedGoroutines snapshots every goroutine and returns the stacks
// that match none of the ignore substrings.
func leakedGoroutines(ignores []string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		ignored := false
		for _, substr := range ignores {
			if strings.Contains(g, substr) {
				ignored = true
				break
			}
		}
		if !ignored {
			leaked = append(leaked, strings.TrimSpace(g))
		}
	}
	return leaked
}
