// Package leakcheck is a dependency-free goroutine-leak detector for
// TestMain. After a package's tests finish it snapshots every goroutine
// stack and fails the run if any stack mentions one of the package's own
// import paths — a pool worker that Close never reaped, a replay
// goroutine stuck on a channel, a dispatcher blocked on a dead pool.
//
// The filter is substring-on-stack rather than a baseline diff, so
// runtime and testing goroutines (and idle net/http connections, whose
// parked stacks contain no frames from the package under test) never
// false-positive. Goroutines need a moment to unwind after the last
// test, so the check polls until a short deadline before declaring a
// leak.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stacks returns every goroutine stack, the current goroutine first
// (runtime.Stack's order), growing the buffer until the dump fits.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Check reports an error if, after polling for up to two seconds, any
// goroutine other than the caller's has a stack containing one of the
// given substrings. Substrings are typically import paths
// ("ibox/internal/par"); matching is plain strings.Contains on the full
// stack text, so function names work too.
func Check(substrings ...string) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var leaked []string
		for i, s := range stacks() {
			if i == 0 {
				continue // the goroutine running the check
			}
			for _, sub := range substrings {
				if strings.Contains(s, sub) {
					leaked = append(leaked, s)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d leaked goroutine(s) matching %q:\n\n%s",
				len(leaked), substrings, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Main runs the package's tests and then Check, returning the exit code
// for os.Exit. Use from TestMain:
//
//	func TestMain(m *testing.M) {
//		os.Exit(leakcheck.Main(m, "ibox/internal/par"))
//	}
//
// A leak turns a passing run into a failing one; a failing run keeps its
// own exit code (the leak is still printed, since a hung goroutine often
// explains the failure).
func Main(m *testing.M, substrings ...string) int {
	code := m.Run()
	if err := Check(substrings...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	return code
}
