package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host this benchmark is tuned on is two vCPUs of a shared machine, and
// its speed drifts by 10-30% over tens of seconds as neighbours come and go;
// process CPU time drifts with it, so it is not steal time that could be
// subtracted. Timed metrics are therefore reported in reference units: an
// op's wall time divided by the time of a fixed computation (refWork)
// measured just before it. The reference lives in this file only, calls
// nothing of the repository, and runs in a helper process of its own (this
// binary again, started with refHelperEnv set), so neither the program's
// code nor the state of its heap and GC can move it.

// refNode is one element of the reference's linked structure: a pointer and
// a small payload, like the simulator's many small heap objects.
type refNode struct {
	key  int
	next *refNode
	val  [6]int64
}

// refNodes is sized so that one refWork takes about 1 ms on a current x86-64
// core.
const refNodes = 9000

// refSink keeps the compiler from dropping the reference's result.
var refSink int64

// refWork is the fixed reference computation: it allocates a linked list and
// a map of about 1 MB, then walks the list probing the map. Allocation, map
// hashing and pointer chasing are what the simulator and the spill spend
// their time on, and in calibration they followed the host's drift more
// closely than walks over fixed arrays did (README.md, Reference units).
func refWork() {
	m := make(map[int]*refNode, 1024)
	var head *refNode
	for i := 0; i < refNodes; i++ {
		n := &refNode{key: i * 7919 % 8191, next: head}
		n.val[i%len(n.val)] = int64(i)
		head = n
		m[n.key] = n
	}
	var s int64
	for n := head; n != nil; n = n.next {
		if o, ok := m[n.key^1]; ok {
			s += o.val[0]
		}
	}
	refSink += s
}

// refReps reference computations are timed back to back and the fastest
// is kept, which drops an interrupt or a GC assist that hit one of them.
const refReps = 3

// refMs times the reference computation in milliseconds.
func refMs() float64 {
	best := 0.0
	for i := 0; i < refReps; i++ {
		t := time.Now()
		refWork()
		if d := ms(time.Since(t)); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// refHelperEnv, when set, makes this binary serve reference timings on
// stdin and stdout instead of running a workload.
const refHelperEnv = "PERFBENCH_REF_HELPER"

// serveRefIfHelper serves reference timings and exits when this process is
// a reference helper; otherwise it returns at once. Each line read from
// stdin is answered with one refMs, after an untimed refWork that warms the
// caches the helper lost while it waited.
func serveRefIfHelper() {
	if os.Getenv(refHelperEnv) == "" {
		return
	}
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		refWork()
		fmt.Fprintf(out, "%g\n", refMs())
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
	os.Exit(0)
}

// refClock is the connection to a running reference helper.
type refClock struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	waited time.Duration // total time ms has taken, kept out of throughput
}

// startRefClock starts a reference helper; stop ends it.
func startRefClock() (*refClock, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refHelperEnv+"=1")
	cmd.Stderr = os.Stderr
	// The helper must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &refClock{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// ms asks the helper for one reference time in milliseconds.
func (c *refClock) ms() (float64, error) {
	t := time.Now()
	defer func() { c.waited += time.Since(t) }()
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference helper: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference helper: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// stop closes the helper's stdin, on which it exits, and waits for it.
func (c *refClock) stop() {
	c.in.Close()
	c.cmd.Wait()
}

// refNominalMs is the reference time that set-up times are scaled to:
// setup_s is reported in seconds on a host where refWork takes this long,
// about what it takes on the reference host when that host is quiet.
const refNominalMs = 1.0

// refWindow is how many ops on each side of an op the reference time it is
// divided by is taken over: the median of their references follows the
// host's drift over seconds but not the noise of one reference timing.
const refWindow = 4

// inRefUnits divides each op time by the median of the reference times
// measured before the ops within refWindow of it, in execution order.
func inRefUnits(opMs, ref []float64) []float64 {
	out := make([]float64, len(opMs))
	for i, t := range opMs {
		lo, hi := max(0, i-refWindow), min(len(ref), i+refWindow+1)
		out[i] = t / median(ref[lo:hi])
	}
	return out
}
