// Command perfbench is the repository's end-to-end benchmark: one run of a
// seeded workload as a user gets it, with every output checked.
//
//	bash perfbench/run.sh --workload spill-write --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package and cmd/oclmon from the checkout it is run in,
// then runs the benchmark from the checkout's root. Workloads:
//
//   - spill-write: in-process runs of the producer->consumer design with a
//     durable segmented spill (recorder -> segment sink -> fsync);
//   - paper-kernels: in-process oclprof-style sessions of the paper's
//     instrumented kernels (interpreter-bound, no spill);
//   - service-mix: one closed-loop client against one oclmon process
//     (admission, queue, SSE, spill reads, checkpointed re-execution).
//
// With --trace 0 the last output line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a separate traced run, whose
// spans are also written as Perfetto trace_event JSON. README.md maps each
// per-layer metric to the end-to-end metric it moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	oclmon   string // built oclmon binary (service-mix)
	work     string // scratch directory, removed at exit
	// maxOps, when positive, ends the timed phase after that many ops per
	// client instead of after seconds (used by the tests).
	maxOps int
}

// Each run sets up this many times and reports the median set-up time.
const setupReps = 15

// rssAtOps is the completed-op count at which peak RSS is reported, so that
// a faster commit, which gets through more of the sequence, is compared on
// the same amount of work (oclmon keeps every run it hosted).
var rssAtOps = map[string]int{"spill-write": 60, "paper-kernels": 60, "service-mix": 100}

// rssEvery is how often, in completed ops, peak RSS is read.
const rssEvery = 10

// result is everything a run measured.
type result struct {
	setup     []float64 // seconds per set-up
	setupRef  []float64 // reference time measured before each set-up
	runMs     []float64 // untraced op times
	refMs     []float64 // reference time measured before each untraced op
	tracedMs  []float64 // traced op times (traced runs)
	admitMs   []float64
	readMs    []float64
	attempted int
	failed    int
	errs      []string
	wall      time.Duration // timed phase less the waits for reference timings
	rss       [][2]float64  // (completed ops, VmHWM in kB) every rssEvery ops

	// Simulated work of the untraced and the traced ops.
	simCycles, tracedCycles, tracedSkipped int64
	completed, tracedOps                   int

	spillBytes  []float64 // per untraced op
	tracedSpill float64   // bytes over all traced ops
	segments    int
	sinkEvents  int64
	sinkCalls   int64
	frames      int
	// oclmon's CPU time and supervisor counters across the timed phase
	// (traced service-mix runs).
	counters oclmonCounters

	digest *digest
	tracer *tracer
}

func newResult(trace bool) *result {
	r := &result{digest: newDigest()}
	if trace {
		r.tracer = newTracer()
	}
	return r
}

func main() {
	serveRefIfHelper()
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "spill-write | paper-kernels | service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.oclmon, "oclmon", "", "oclmon binary for service-mix")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if err := mainErr(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, out io.Writer) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the root of a repository checkout")
	}
	if _, ok := rssAtOps[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	buildDir := filepath.Join(".bench_build", "perfbench")
	cfg.work = filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)
	res, err := run(cfg)
	if err != nil {
		return err
	}
	tracePath := ""
	if cfg.trace {
		tracePath = filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.tracer.writePerfetto(tracePath, cfg.workload); err != nil {
			return err
		}
	}
	return report(out, cfg, res, tracePath)
}

// run starts the reference helper and dispatches to the function that
// drives the workload.
func run(cfg config) (*result, error) {
	clk, err := startRefClock()
	if err != nil {
		return nil, fmt.Errorf("reference helper: %w", err)
	}
	defer clk.stop()
	switch cfg.workload {
	case "spill-write":
		return runInProc(cfg, clk, spillOp)
	case "paper-kernels":
		return runInProc(cfg, clk, kernelOp)
	default:
		return runService(cfg, clk)
	}
}

// opFunc runs one in-process op; dir is its private scratch directory.
type opFunc func(tr *tracer, o op, dir string) (opResult, error)

// runInProc drives an in-process workload: set up (one untimed warm-up op)
// setupReps times, then run the sequence in a closed loop with one client.
// A traced run executes every op twice, untraced and traced in alternating
// order, so the tracing overhead is measured on the same ops.
func runInProc(cfg config, clk *refClock, fn opFunc) (*result, error) {
	res := newResult(cfg.trace)
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d", rep))
		ref, err := clk.ms()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := fn(nil, warmupOp(cfg.workload), dir); err != nil {
			return nil, fmt.Errorf("set-up op: %w", err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
		res.setupRef = append(res.setupRef, ref)
		os.RemoveAll(dir)
	}
	resetPeakRSS(0)
	clk.waited = 0 // only the timed phase's waits are kept out of its wall time
	start := time.Now()
	for i := 0; !done(cfg, start, i); i++ {
		o := opAt(cfg.workload, cfg.seed, 0, i)
		for pass := 0; pass < passes(cfg); pass++ {
			traced := cfg.trace && (pass == 0) == (i%2 == 1)
			var tr *tracer
			if traced {
				tr = res.tracer
			}
			dir := filepath.Join(cfg.work, fmt.Sprintf("op-%d-%d", i, pass))
			ref, err := clk.ms()
			if err != nil {
				return nil, err
			}
			t := time.Now()
			r, err := fn(tr, o, dir)
			elapsed := ms(time.Since(t))
			os.RemoveAll(dir)
			res.record(cfg, 0, o, traced, elapsed, ref, r, err, 0)
		}
	}
	res.wall = time.Since(start) - clk.waited
	res.readRSS(0)
	return res, nil
}

// done reports whether the closed loop should stop before op i.
func done(cfg config, start time.Time, i int) bool {
	if cfg.maxOps > 0 {
		return i >= cfg.maxOps
	}
	return time.Since(start).Seconds() >= cfg.seconds
}

func passes(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 1
}

// record accounts one executed op, which took elapsed ms after a reference
// computation took ref ms. A failed op still counts its time.
func (res *result) record(cfg config, client int, o op, traced bool, elapsed, ref float64, r opResult, err error, pid int) {
	res.attempted++
	if err != nil {
		res.failed++
		if len(res.errs) < 5 {
			res.errs = append(res.errs, fmt.Sprintf("client %d op %d (%s): %v", client, o.Index, o, err))
		}
	}
	if traced {
		res.tracedMs = append(res.tracedMs, elapsed)
		if err == nil {
			res.tracedOps++
			res.tracedCycles += r.simCycles
			res.tracedSkipped += r.ffSkipped
			res.segments += r.segments
			res.sinkEvents += r.sinkEvents
			res.sinkCalls += r.sinkCalls
			res.tracedSpill += float64(r.spillBytes)
		}
		return
	}
	res.runMs = append(res.runMs, elapsed)
	res.refMs = append(res.refMs, ref)
	if err != nil {
		return
	}
	res.completed++
	res.simCycles += r.simCycles
	if r.spillBytes > 0 {
		res.spillBytes = append(res.spillBytes, float64(r.spillBytes))
	}
	res.digest.add(client, o.Index, r.digest)
	if res.completed%rssEvery == 0 {
		res.readRSS(pid)
	}
}

// readRSS records the peak RSS (VmHWM) of the process running the system
// (pid 0: this process) since the previous reading, against the ops
// completed so far, then resets the high-water mark for the next window.
func (res *result) readRSS(pid int) {
	kb, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return
	}
	res.rss = append(res.rss, [2]float64{float64(res.completed), float64(kb)})
	resetPeakRSS(pid)
}

// peakRSSMB is the window peak RSS at k completed ops in MB, from a
// Theil-Sen line through the readings. One window's peak depends on where
// Go's GC cycles fell; the robust trend over all windows does not, and it
// still follows oclmon's growth as it keeps every run it hosted.
func (res *result) peakRSSMB(k int) float64 {
	pts := res.rss
	if len(pts) == 0 {
		return 0
	}
	var slopes []float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if dx := pts[j][0] - pts[i][0]; dx > 0 {
				slopes = append(slopes, (pts[j][1]-pts[i][1])/dx)
			}
		}
	}
	b := median(slopes)
	offs := make([]float64, len(pts))
	for i, p := range pts {
		offs[i] = p[1] - b*p[0]
	}
	return (median(offs) + b*float64(k)) / 1024
}

// runService drives service-mix: set up (boot oclmon, run and pin the
// baseline) setupReps times keeping the last server, then run one
// closed-loop client on one connection.
func runService(cfg config, clk *refClock) (*result, error) {
	if cfg.oclmon == "" {
		return nil, errors.New("service-mix needs --oclmon")
	}
	res := newResult(cfg.trace)
	refs, err := serviceRefs()
	if err != nil {
		return nil, err
	}
	var (
		proc *oclmonProc
		bl   histRun
	)
	for rep := 0; rep < setupReps; rep++ {
		if proc != nil {
			proc.stop()
		}
		var ref float64
		if ref, err = clk.ms(); err != nil {
			return nil, err
		}
		t := time.Now()
		proc, bl, err = bootService(cfg.oclmon, filepath.Join(cfg.work, fmt.Sprintf("oclmon-%d", rep)), refs, baselineN)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
		res.setupRef = append(res.setupRef, ref)
	}
	defer proc.stop()
	pid := proc.cmd.Process.Pid

	// Only the traced run reads oclmon's counters: with a pinned baseline, a
	// /metrics scrape computes a diff verdict for every run it hosts.
	var before oclmonCounters
	if cfg.trace {
		if before, err = readCounters(proc); err != nil {
			return nil, err
		}
	}
	resetPeakRSS(pid)
	cl := newClient(0, proc, refs, bl)
	defer cl.hc.CloseIdleConnections()
	clk.waited = 0 // only the timed phase's waits are kept out of its wall time
	start := time.Now()
	for i := 0; !done(cfg, start, i); i++ {
		o := opAt(cfg.workload, cfg.seed, cl.id, i)
		for pass := 0; pass < passes(cfg); pass++ {
			traced := cfg.trace && (pass == 0) == (i%2 == 1)
			var tr *tracer
			if traced {
				tr = res.tracer
			}
			ref, err := clk.ms()
			if err != nil {
				return nil, err
			}
			lr, err := cl.loop(tr, o)
			if lr.admitMs > 0 && !traced {
				res.admitMs = append(res.admitMs, lr.admitMs)
			}
			if !traced {
				res.readMs = append(res.readMs, lr.readMs...)
			} else {
				res.frames += lr.frames
			}
			res.record(cfg, cl.id, o, traced, lr.runMs, ref, opResult{simCycles: lr.end, spillBytes: lr.spillBytes, digest: lr.digest}, err, pid)
		}
	}
	res.wall = time.Since(start) - clk.waited
	res.readRSS(pid)

	if cfg.trace {
		after, err := readCounters(proc)
		if err != nil {
			return nil, err
		}
		res.counters = oclmonCounters{
			cpu:       after.cpu - before.cpu,
			completed: after.completed - before.completed,
			failed:    after.failed - before.failed,
			shed:      after.shed - before.shed,
		}
	}
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics of an untraced run that every workload
// reports (BENCHMARK.json end_to_end). Op times and throughput are in
// reference units (refclock.go), so the host's drift in speed between runs
// cancels. Set-up time is in seconds at the nominal reference speed
// (refNominalMs); peak RSS is as measured.
func endToEnd(cfg config, res *result) map[string]metric {
	runRef := inRefUnits(res.runMs, res.refMs)
	// The timed phase in thousands of reference units: wall ms / ref ms / 1e3.
	kref := res.wall.Seconds() / median(res.refMs)
	return map[string]metric{
		"setup_s":            {median(inRefUnits(res.setup, res.setupRef)) * refNominalMs, "s"},
		"op_ref_p50":         {median(runRef), "ref"},
		"op_ref_p90":         {quantile(runRef, 0.9), "ref"},
		"simcycles_per_kref": {float64(res.simCycles) / kref, "1/kref"},
		"ops_per_kref":       {float64(res.completed) / kref, "1/kref"},
		"peak_rss_mb":        {res.peakRSSMB(rssAtOps[cfg.workload]), "MB"},
	}
}

// perLayer computes the traced run's per-layer metrics (BENCHMARK.json
// per_layer). A layer a workload does not call reports 0.
func perLayer(res *result) map[string]metric {
	table := res.tracer.layerTable()
	ops := res.tracedOps
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	per := func(x float64) float64 { return frac(x, float64(ops)) }
	self := func(name string) metric { return metric{selfPerOp(table, name, ops), "ms"} }
	return map[string]metric{
		"hls.compile_ms":            self("hls.compile"),
		"sim.build_ms":              self("sim.build"),
		"sim.run_self_ms":           self("sim.run"),
		"sim.simcycles":             {per(float64(res.tracedCycles)), "count"},
		"sim.ff_skipped_frac":       {frac(float64(res.tracedSkipped), float64(res.tracedCycles)), "frac"},
		"obs.open_ms":               self("obs.open"),
		"obs.sink_ms":               self("obs.sink"),
		"obs.sink_calls":            {per(float64(res.sinkCalls)), "count"},
		"obs.finalize_ms":           self("obs.finalize"),
		"obs.segments_per_run":      {per(float64(res.segments)), "count"},
		"obs.bytes_per_event":       {frac(res.tracedSpill, float64(res.sinkEvents)), "B"},
		"analyze.attribute_ms":      self("analyze.attribute"),
		"host.readback_ms":          self("host.readback"),
		"oclmon.admit_ms":           self("oclmon.admit"),
		"oclmon.queue_build_ms":     self("oclmon.queue_build"),
		"oclmon.stream_ms":          self("oclmon.stream"),
		"oclmon.sse_frames_per_run": {per(float64(res.frames)), "count"},
		"oclmon.attr_ms":            self("oclmon.attr"),
		"oclmon.diff_ms":            self("oclmon.diff"),
		"oclmon.query_ms":           self("oclmon.query"),
		"oclmon.at_cycle_ms":        self("oclmon.at_cycle"),
		"oclmon.cpu_ms_per_run":     {frac(res.counters.cpu*1e3, float64(res.completed+res.tracedOps)), "ms"},
		"supervise.completed":       {res.counters.completed, "count"},
		"supervise.failed":          {res.counters.failed, "count"},
		"supervise.shed":            {res.counters.shed, "count"},
		"trace.overhead_ms":         {median(res.tracedMs) - median(res.runMs), "ms"},
	}
}

// report prints the human-readable summary, then the result line.
func report(w io.Writer, cfg config, res *result, tracePath string) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: %s\n", hostFingerprint())
	fmt.Fprintln(w, "note: times are host wall-clock times of the simulator; the simulated design is not validated against FPGA hardware, so they carry no error figure against real FPGAs")
	for _, e := range res.errs {
		fmt.Fprintln(w, "failure:", e)
	}
	n := len(res.runMs)
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	row := func(name string, v float64, unit string, samples int) {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", name, v, unit, samples)
	}
	var metrics map[string]metric
	if !cfg.trace {
		metrics = endToEnd(cfg, res)
		fmt.Fprintln(w, "end-to-end (untraced):")
		row("setup_s", metrics["setup_s"].Value, "s", len(res.setup))
		row("op_ref_p50", metrics["op_ref_p50"].Value, "ref", n)
		row("op_ref_p90", metrics["op_ref_p90"].Value, "ref", n)
		row("simcycles_per_kref", metrics["simcycles_per_kref"].Value, "1/kref", res.completed)
		row("ops_per_kref", metrics["ops_per_kref"].Value, "1/kref", res.completed)
		row("peak_rss_mb", metrics["peak_rss_mb"].Value, "MB", len(res.rss))
		fmt.Fprintln(w, "as measured, in host time (drift with the host's speed):")
		row("ref_ms", median(res.refMs), "ms", len(res.refMs))
		row("setup_s_host", median(res.setup), "s", len(res.setup))
		row("run_ms_p50", median(res.runMs), "ms", n)
		row("run_ms_p90", quantile(res.runMs, 0.9), "ms", n)
		row("simcycles_per_s", float64(res.simCycles)/res.wall.Seconds(), "1/s", res.completed)
		row("ops_per_s", float64(res.completed)/res.wall.Seconds(), "1/s", res.completed)
		row("failed_frac", failedFrac, "frac", res.attempted)
		if cfg.workload == "service-mix" {
			row("admit_ms_p50", median(res.admitMs), "ms", len(res.admitMs))
			row("admit_ms_p90", quantile(res.admitMs, 0.9), "ms", len(res.admitMs))
			row("read_ms_p50", median(res.readMs), "ms", len(res.readMs))
			row("read_ms_p90", quantile(res.readMs, 0.9), "ms", len(res.readMs))
		}
		if cfg.workload != "paper-kernels" {
			row("spill_bytes_per_run", median(res.spillBytes), "B", len(res.spillBytes))
		}
		sum, ops := res.digest.sum()
		fmt.Fprintf(w, "simulated-statistics digest: %s over %d ops (the first %d of each client's sequence)\n", sum, ops, digestOps)
	} else {
		metrics = perLayer(res)
		fmt.Fprintf(w, "per-layer spans of %d traced ops (self time excludes child spans and wrapped-sink time):\n", res.tracedOps)
		writeTable(w, res.tracer.layerTable(), res.tracedOps)
		fmt.Fprintln(w, "per-layer metrics:")
		for _, name := range sortedKeys(metrics) {
			row(name, metrics[name].Value, metrics[name].Unit, res.tracedOps)
		}
		fmt.Fprintf(w, "tracing overhead: run_ms_p50 traced %.4f - untraced %.4f = %.4f ms (n=%d, %d)\n",
			median(res.tracedMs), median(res.runMs), median(res.tracedMs)-median(res.runMs), len(res.tracedMs), n)
		fmt.Fprintf(w, "perfetto trace: %s\n", tracePath)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
