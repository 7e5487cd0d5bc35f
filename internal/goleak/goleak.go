// Package goleak fails a test run that leaves goroutines behind. It is
// a dependency-free reimplementation of the core of go.uber.org/goleak
// (VerifyTestMain / Find with the same semantics), built
// on runtime.Stack because this module deliberately has no external
// dependencies and the build environment is offline. If the module
// ever grows a dependency budget, swapping the import path back to
// go.uber.org/goleak is mechanical.
//
// Wire it into a package once:
//
//	func TestMain(m *testing.M) { goleak.VerifyTestMain(m) }
//
// After the package's tests pass, Find snapshots all goroutines,
// retries with backoff while anything non-ignorable is still running
// (goroutines legitimately finishing are given time to exit), and
// fails the binary if stragglers remain. A leaked goroutine here means
// an engine runtime, broker consumer, or harness worker survived its
// run — the same defect ctxleak hunts statically.
package goleak

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// options configures Find.
type options struct {
	ignoreTop []string
	ignoreAny []string
	maxWait   time.Duration
}

// An Option adjusts leak detection.
type Option func(*options)

// IgnoreTopFunction ignores goroutines whose top stack frame is the
// named function (fully qualified, e.g. "internal/poll.runtime_pollWait").
func IgnoreTopFunction(name string) Option {
	return func(o *options) { o.ignoreTop = append(o.ignoreTop, name) }
}

// IgnoreAnyFunction ignores goroutines with the named function
// anywhere in their stack.
func IgnoreAnyFunction(name string) Option {
	return func(o *options) { o.ignoreAny = append(o.ignoreAny, name) }
}

// MaxWait bounds how long Find waits for in-flight goroutines to
// finish before declaring them leaked (default 1s).
func MaxWait(d time.Duration) Option {
	return func(o *options) { o.maxWait = d }
}

// defaultIgnoreTop matches the test harness's own machinery and
// runtime helpers that legitimately outlive a test run.
var defaultIgnoreTop = []string{
	"testing.Main",
	"testing.tRunner",
	"testing.runTests",
	"testing.(*T).Run",
	"testing.(*M).Run",
	"testing.runFuzzing",
	"testing.(*F).Fuzz",
	"runtime.goexit",
	"os/signal.signal_recv",
	"os/signal.loop",
}

// VerifyTestMain runs the package's tests and, if they passed, fails
// the binary when goroutines leak. Call it from TestMain.
func VerifyTestMain(m *testing.M, opts ...Option) {
	exit := m.Run()
	if exit == 0 {
		if err := Find(opts...); err != nil {
			fmt.Fprintf(os.Stderr, "goleak: leaked goroutines after all tests passed:\n%v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// Find returns an error describing all currently running goroutines
// that are not ignorable, after giving finishing goroutines up to
// maxWait to exit.
func Find(opts ...Option) error {
	o := &options{maxWait: time.Second}
	for _, opt := range opts {
		opt(o)
	}
	var leaked []goroutine
	deadline := time.Now().Add(o.maxWait)
	sleep := time.Millisecond
	for {
		leaked = filter(snapshot(), o)
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(sleep)
		if sleep < 100*time.Millisecond {
			sleep *= 2
		}
	}
	if len(leaked) == 0 {
		return nil
	}
	var b strings.Builder
	for i, g := range leaked {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s\n%s\n", g.header, g.trace)
	}
	return fmt.Errorf("%d leaked goroutine(s):\n%s", len(leaked), b.String())
}

type goroutine struct {
	header string // "goroutine 12 [chan receive]:"
	top    string // first function on the stack
	trace  string // full frame listing
}

// snapshot parses runtime.Stack(all=true). System goroutines (GC
// workers and friends) are already excluded by the runtime.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutine
	for _, block := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "goroutine ") {
			continue
		}
		g := goroutine{header: lines[0], trace: strings.Join(lines[1:], "\n")}
		// The first non-indented line below the header is the top
		// frame: "pkg.Func(args...)".
		if fn := lines[1]; !strings.HasPrefix(fn, "\t") {
			g.top = trimCallArgs(fn)
		}
		out = append(out, g)
	}
	return out
}

// trimCallArgs turns "pkg.(*T).method(0xc000..., 0x1)" into
// "pkg.(*T).method".
func trimCallArgs(fn string) string {
	if i := strings.LastIndex(fn, "("); i > 0 && strings.HasSuffix(fn, ")") {
		return fn[:i]
	}
	return fn
}

func filter(gs []goroutine, o *options) []goroutine {
	var leaked []goroutine
next:
	for _, g := range gs {
		// The goroutine running Find (and VerifyTestMain above it).
		if strings.Contains(g.trace, "internal/goleak.Find") {
			continue
		}
		for _, top := range defaultIgnoreTop {
			if g.top == top {
				continue next
			}
		}
		for _, top := range o.ignoreTop {
			if g.top == top {
				continue next
			}
		}
		for _, any := range o.ignoreAny {
			if strings.Contains(g.trace, any+"(") {
				continue next
			}
		}
		leaked = append(leaked, g)
	}
	return leaked
}
