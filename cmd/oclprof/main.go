// Command oclprof compiles and simulates a built-in workload with the
// requested profiling/debugging instrumentation and prints what a developer
// would see: the compiler log, the synthesis fit, and the collected traces.
//
//	go run ./cmd/oclprof -workload matvec-st -device s5
//	go run ./cmd/oclprof -workload matmul -stallmon -trace
//	go run ./cmd/oclprof -workload chase -timestamps hdl
//	go run ./cmd/oclprof -workload chanstall -inject freeze-read:pipe@500 -diagnose
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/recipe"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
	"oclfpga/internal/workload"
)

var (
	flagWorkload = flag.String("workload", "matvec-st", "matvec-st | matvec-nd | matmul | chase | vecadd | fir | chanstall")
	flagDevice   = flag.String("device", "s5", "s5 | a10 | a10i")
	flagStallMon = flag.Bool("stallmon", false, "attach a stall monitor (matmul)")
	flagWatch    = flag.Bool("watch", false, "attach a smart watchpoint (matmul)")
	flagTS       = flag.String("timestamps", "none", "none | cl | hdl (chase)")
	flagTrace    = flag.Bool("trace", false, "drain and print ibuffer traces after the run")
	flagInstr    = flag.Bool("order", false, "instrument matvec with seq+timestamp capture")
	flagDepthOpt = flag.Bool("chandepthopt", false, "enable the channel-depth optimization pass (§3.1 hazard)")
	flagLog      = flag.Bool("log", true, "print the compiler log")
	flagProfile  = flag.Bool("profile", false, "print board-level channel/memory counters after the run")
	flagVCD      = flag.String("vcd", "", "write a SignalTap-style channel waveform (VCD) to this file")
	flagSched    = flag.Bool("schedule", false, "print the scheduled-datapath report (the vendor report analogue)")
	flagInject   = flag.String("inject", "", "inject faults: comma-separated kind[:target]@cycle[+duration][=value] specs")
	flagDiagnose = flag.Bool("diagnose", false, "on a hang, print the structured deadlock report instead of a bare error")
	flagStall    = flag.Int64("stalllimit", 0, "cycles without progress before diagnosing a hang (0 = default)")
	flagTimeline = flag.String("timeline", "", "write the event timeline (Perfetto/Chrome trace_event JSON) to this file")
	flagMetrics  = flag.String("metrics", "", "write the periodic metrics series (JSON) to this file")
	flagEvery    = flag.Int64("sample-every", 1000, "metrics sampling interval in cycles (with -metrics/-timeline)")
	flagJSON     = flag.Bool("json", false, "emit a machine-readable run report on stdout; human text goes to stderr")
	flagAttr     = flag.String("attr", "", "write the stall attribution & critical-path analysis (JSON) to this file")
	flagFolded   = flag.String("folded", "", "write folded stall stacks (flamegraph.pl input) to this file")
	flagPprof    = flag.String("pprof", "", "write a gzipped pprof stall profile to this file (open with go tool pprof -http)")
	flagSpill    = flag.String("spill", "", "stream observability records to this file as NDJSON while the run executes")
	flagSpillDir = flag.String("spill-dir", "", "stream observability records into crash-safe rotated NDJSON segments under this directory")
	flagSegLines = flag.Int("seg-lines", 4096, "segment rotation threshold in payload lines (with -spill-dir)")
	flagSegBytes = flag.Int64("seg-bytes", 1<<20, "segment rotation threshold in payload bytes (with -spill-dir)")
	flagAtCycle  = flag.Int64("at-cycle", -1, "re-execute to this cycle and dump the machine state as JSON (with -spill-dir: rewind from the nearest recorded checkpoint, hash-verified)")
	flagBreak    = flag.String("break", "", "halt re-execution on breakpoint/watchpoint specs: cycle=N | chan:NAME.stall>K | chan:NAME.len>K | unit:NAME.state=S (comma-separated)")
	flagQueryStr = flag.String("query", "", "answer an event query from -spill-dir via the segment index: 'track=T name=N kind=K cycles=[a,b]'")
	flagCkptEvry = flag.Int64("checkpoint-every", 0, "emit rewind checkpoints every N cycles into the observability stream (0 = off); with -at-cycle and no -spill-dir, rewind two-phase via this grid")
	flagScrub    = flag.Bool("scrub", false, "scrub -spill-dir: verify every segment fingerprint and self-heal damage, re-executing the recorded run (manifest Meta) for byte-identical segment repair; exit 1 if damage remains")
	flagDiff     = flag.Bool("diff", false, "compare two stall-attribution JSON files (baseline first): oclprof -diff A.json B.json; exit 3 on a regression")
	flagDiffSpl  = flag.Bool("diff-spill", false, "compare two completed spill directories (baseline first) via the segment indexes: oclprof -diff-spill dirA dirB; exit 3 on a regression")
	flagDiffRel  = flag.Float64("diff-rel", 1, "diff verdict relative threshold in percent (with -diff/-diff-spill)")
	flagDiffAbs  = flag.Int64("diff-abs", 16, "diff verdict absolute threshold in cycles (with -diff/-diff-spill)")
)

// out carries the human-readable narration. With -json it is rerouted to
// stderr so stdout stays a single valid JSON document.
var out io.Writer = os.Stdout

// debugOn reports whether a time-travel debugging mode (-at-cycle / -break)
// intercepts the run.
func debugOn() bool { return *flagAtCycle >= 0 || *flagBreak != "" }

// observeOn reports whether the observability layer should be attached.
// Debug re-execution runs unobserved: an existing -spill-dir is only read
// (for its checkpoints), never resumed or overwritten.
func observeOn() bool {
	if debugOn() {
		return false
	}
	return *flagTimeline != "" || *flagMetrics != "" || *flagAttr != "" ||
		*flagFolded != "" || *flagPprof != "" || *flagSpill != "" || *flagSpillDir != ""
}

// analyzeOn reports whether the run's timeline feeds the analysis engine.
func analyzeOn() bool { return *flagAttr != "" || *flagFolded != "" || *flagPprof != "" }

// spillFile holds the -spill NDJSON destination open across the run; the
// simulator's recorder streams into it and finishRun closes it.
var spillFile *os.File

// must unwraps a (value, error) pair, aborting the tool on error — the
// command-line analogue of the library's error returns.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// flagSpec is the run the flags ask for. The sample and checkpoint grids are
// part of the record, so they are set only when the run is observed; debug
// re-execution reads -checkpoint-every from the flag directly.
func flagSpec() recipe.Spec {
	s := recipe.Spec{
		Workload: *flagWorkload, Device: *flagDevice, ChanDepthOpt: *flagDepthOpt,
		StallMon: *flagStallMon, Watch: *flagWatch, Order: *flagInstr,
		Inject: *flagInject, StallLimit: *flagStall,
	}
	if *flagTS != "none" {
		s.Timestamps = *flagTS
	}
	if observeOn() {
		s.SampleEvery, s.CheckpointEvery = *flagEvery, *flagCkptEvry
	}
	return s
}

// openSinks opens the run's observability destinations: nil when the run is
// unobserved, else the -spill NDJSON file and the -spill-dir segments (whose
// manifest records the spec), fanned out. An empty fanout records in memory
// only.
func openSinks(spec recipe.Spec) obs.Sink {
	if !observeOn() {
		return nil
	}
	var sinks []obs.Sink
	if *flagSpill != "" {
		f, err := os.Create(*flagSpill)
		if err != nil {
			log.Fatal(err)
		}
		spillFile = f
		sinks = append(sinks, obs.NewNDJSONSink(f, spec.Workload, spec.SampleEvery))
	}
	if *flagSpillDir != "" {
		seg, err := obs.NewSegmentSink(obs.SegmentConfig{
			Dir: *flagSpillDir, Design: spec.Workload, SampleEvery: spec.SampleEvery,
			Meta:     spec.Meta(),
			MaxLines: *flagSegLines, MaxBytes: *flagSegBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, seg)
	}
	if len(sinks) == 1 {
		return sinks[0]
	}
	return obs.NewFanout(sinks...)
}

// checkRun handles the outcome of Machine.Run: with -diagnose, a deadlock is
// reported as the structured hang diagnosis the paper's debugging flow calls
// for; otherwise any error aborts.
func checkRun(err error) {
	if err == nil {
		return
	}
	var de *sim.DeadlockError
	if *flagDiagnose && errors.As(err, &de) {
		if *flagJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if eerr := enc.Encode(struct {
				Deadlock *sim.DeadlockReport `json:"deadlock"`
			}{de.Report}); eerr != nil {
				log.Fatal(eerr)
			}
		} else {
			fmt.Fprint(out, de.Report.String())
		}
		os.Exit(1)
	}
	log.Fatal(err)
}

// runAtCycle re-executes to the target cycle and dumps the machine state as
// the run's single stdout document. With -spill-dir, the rewind runs to the
// nearest recorded checkpoint at or before the target first and verifies its
// design and state hashes — a mismatch means the re-execution is not the
// spilled run and is fatal. With only -checkpoint-every K, the run is split
// at the same grid cycle unverified. Either way the dump is byte-identical
// to a plain cycle-0 re-execution's.
func runAtCycle(r *recipe.Run) {
	target := *flagAtCycle
	var cks []obs.Checkpoint
	if *flagSpillDir != "" {
		cks = must(query.Checkpoints(*flagSpillDir))
	} else if start := target / max(*flagCkptEvry, 1) * *flagCkptEvry; start > 0 {
		checkRun(r.Machine.RunTo(start))
		fmt.Fprintf(os.Stderr, "rewind: two-phase via checkpoint grid cycle %d (no spill; unverified)\n", start)
	}
	ck, err := r.RewindTo(target, cks)
	checkRun(err)
	if ck != nil {
		fmt.Fprintf(os.Stderr, "rewind: checkpoint at cycle %d verified; fast-forwarded %d cycles to target\n",
			ck.Cycle, target-ck.Cycle)
	}
	buf, err := json.MarshalIndent(r.Machine.StateDump(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(buf, '\n'))
}

// breakReport is -break's stdout document: the specs, the first hit (null
// when the run completed without one), and the machine state at the halt.
type breakReport struct {
	Workload string            `json:"workload"`
	Specs    []string          `json:"specs"`
	Hit      *sim.BreakHit     `json:"hit"`
	State    *sim.MachineState `json:"state"`
}

// runBreak re-executes under the -break specs and reports the first hit with
// the machine state frozen at the halt cycle.
func runBreak(m *sim.Machine) {
	hit, err := m.RunBreaks(breakSpecs)
	checkRun(err)
	r := breakReport{Workload: *flagWorkload, Specs: make([]string, len(breakSpecs)), Hit: hit, State: m.StateDump()}
	for i, b := range breakSpecs {
		r.Specs[i] = b.String()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
	if hit != nil {
		fmt.Fprintf(os.Stderr, "break: %s hit at cycle %d\n", hit.Spec, hit.Cycle)
	} else {
		fmt.Fprintf(os.Stderr, "break: run completed at cycle %d without a hit\n", m.Cycle())
	}
}

// runReport is the machine-readable summary -json prints on stdout.
type runReport struct {
	Workload    string               `json:"workload"`
	Device      string               `json:"device"`
	Cycles      int64                `json:"cycles"`
	Units       []unitReport         `json:"units"`
	Profile     *sim.ProfileReport   `json:"profile,omitempty"`
	FastForward sim.FastForwardStats `json:"fastForward"`
	Timeline    string               `json:"timelineFile,omitempty"`
	Metrics     string               `json:"metricsFile,omitempty"`
	Attr        string               `json:"attrFile,omitempty"`
	Folded      string               `json:"foldedFile,omitempty"`
	Pprof       string               `json:"pprofFile,omitempty"`
	Spill       string               `json:"spillFile,omitempty"`
	SpillDir    string               `json:"spillDir,omitempty"`
	SampleEvery int64                `json:"sampleEvery,omitempty"`
	// Stall summarizes the attribution when the analysis engine ran.
	Stall *stallReport `json:"stall,omitempty"`
}

type stallReport struct {
	TotalStallCycles int64 `json:"totalStallCycles"`
	CriticalCycles   int64 `json:"criticalCycles"`
	Rows             int   `json:"rows"`
}

type unitReport struct {
	Kernel     string `json:"kernel"`
	FinishedAt int64  `json:"finishedAt"`
}

// finishRun is the common epilogue of every workload: dump the timeline and
// metrics files if requested, and with -json emit the run report on stdout.
// Execute already closed the record, so the spills are complete here.
func finishRun(r *recipe.Run) {
	m := r.Machine
	if *flagTimeline != "" {
		writeJSONFile(*flagTimeline, func(w io.Writer) error {
			return obs.WriteTimeline(w, m.Timeline())
		})
		fmt.Fprintf(out, "timeline: %s (%d events; open in ui.perfetto.dev)\n",
			*flagTimeline, len(m.Timeline().Events))
	}
	if *flagMetrics != "" {
		writeJSONFile(*flagMetrics, func(w io.Writer) error {
			return obs.WriteSeries(w, m.Series())
		})
		fmt.Fprintf(out, "metrics: %s (%d samples, every %d cycles)\n",
			*flagMetrics, len(m.Samples()), *flagEvery)
	}
	if *flagSpill != "" {
		if err := spillFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "spill: %s (NDJSON event stream; replay with obscheck -spill)\n", *flagSpill)
	}
	if *flagSpillDir != "" {
		fmt.Fprintf(out, "spill-dir: %s (crash-safe segments; validate with obscheck -spill-dir)\n", *flagSpillDir)
	}
	var attr *analyze.Attribution
	if analyzeOn() {
		// The flat read path: attribute straight off the recorder's
		// fixed-width records instead of materializing the Event timeline.
		attr = analyze.AttributeRecorder(m.Observer())
		if *flagAttr != "" {
			writeJSONFile(*flagAttr, func(w io.Writer) error { return analyze.WriteJSON(w, attr) })
			fmt.Fprintf(out, "attribution: %s (%d rows, critical path %d cycles)\n",
				*flagAttr, len(attr.Rows), attr.CriticalCycles)
		}
		if *flagFolded != "" {
			writeJSONFile(*flagFolded, func(w io.Writer) error { return analyze.WriteFolded(w, attr) })
			fmt.Fprintf(out, "folded stacks: %s\n", *flagFolded)
		}
		if *flagPprof != "" {
			writeJSONFile(*flagPprof, func(w io.Writer) error { return analyze.WritePprof(w, attr) })
			fmt.Fprintf(out, "pprof profile: %s (go tool pprof -http=: %s)\n", *flagPprof, *flagPprof)
		}
	}
	if !*flagJSON {
		return
	}
	rep := runReport{
		Workload:    *flagWorkload,
		Device:      *flagDevice,
		Cycles:      m.Cycle(),
		FastForward: m.FastForwardStats(),
		Timeline:    *flagTimeline,
		Metrics:     *flagMetrics,
		Attr:        *flagAttr,
		Folded:      *flagFolded,
		Pprof:       *flagPprof,
		Spill:       *flagSpill,
		SpillDir:    *flagSpillDir,
	}
	if observeOn() {
		rep.SampleEvery = *flagEvery
	}
	if attr != nil {
		rep.Stall = &stallReport{
			TotalStallCycles: attr.TotalStallCycles,
			CriticalCycles:   attr.CriticalCycles,
			Rows:             len(attr.Rows),
		}
	}
	for _, u := range r.Units {
		rep.Units = append(rep.Units, unitReport{Kernel: u.Kernel().UnitName(), FinishedAt: u.FinishedAt()})
	}
	if *flagProfile {
		p := m.Profile(r.Units...)
		rep.Profile = &p
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

func writeJSONFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// usageExit rejects a mutually-exclusive flag combination: message, usage,
// exit code 2 (the flag-misuse convention).
func usageExit(msg string) {
	fmt.Fprintln(os.Stderr, "oclprof: "+msg)
	flag.Usage()
	os.Exit(2)
}

// breakSpecs is the -break list, parsed before any compilation so a typo
// fails fast.
var breakSpecs []query.Break

// validateModes enforces the debug/compare modes' exclusivity rules.
// -at-cycle, -break, -query, -scrub, -diff, and -diff-spill each own the run
// (and stdout), so they exclude each other and every trace-producing flag;
// -at-cycle keeps -spill-dir as its read-only checkpoint source, -query and
// -scrub require it, and the diff modes take their two inputs as positional
// arguments instead.
func validateModes() {
	modes := 0
	for _, on := range []bool{*flagAtCycle >= 0, *flagBreak != "", *flagQueryStr != "", *flagScrub, *flagDiff, *flagDiffSpl} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		usageExit("-at-cycle, -break, -query, -scrub, -diff, and -diff-spill are mutually exclusive")
	}
	if modes == 0 {
		return
	}
	outputs := []struct {
		set  bool
		name string
	}{
		{*flagTimeline != "", "-timeline"},
		{*flagMetrics != "", "-metrics"},
		{*flagAttr != "", "-attr"},
		{*flagFolded != "", "-folded"},
		{*flagPprof != "", "-pprof"},
		{*flagSpill != "", "-spill"},
		{*flagVCD != "", "-vcd"},
		{*flagJSON, "-json"},
	}
	mode := "-at-cycle"
	switch {
	case *flagBreak != "":
		mode = "-break"
	case *flagQueryStr != "":
		mode = "-query"
	case *flagScrub:
		mode = "-scrub"
	case *flagDiff:
		mode = "-diff"
	case *flagDiffSpl:
		mode = "-diff-spill"
	}
	for _, o := range outputs {
		if o.set {
			usageExit(mode + " cannot be combined with " + o.name)
		}
	}
	if *flagBreak != "" && *flagSpillDir != "" {
		usageExit("-break cannot be combined with -spill-dir (breakpointed re-execution is unobserved)")
	}
	if (*flagDiff || *flagDiffSpl) && *flagSpillDir != "" {
		usageExit(mode + " cannot be combined with -spill-dir (pass the two inputs as arguments, baseline first)")
	}
	if (*flagDiff || *flagDiffSpl) && flag.NArg() != 2 {
		usageExit(mode + " takes exactly two arguments, baseline first")
	}
	if *flagQueryStr != "" && *flagSpillDir == "" {
		usageExit("-query requires -spill-dir (the indexed spill to query)")
	}
	if *flagScrub && *flagSpillDir == "" {
		usageExit("-scrub requires -spill-dir (the spill to verify and heal)")
	}
	if *flagBreak != "" {
		var err error
		if breakSpecs, err = query.ParseBreaks(*flagBreak); err != nil {
			usageExit(err.Error())
		}
	}
}

// runQuery answers -query straight from the spill directory — no device, no
// compilation, no re-execution: the segment index does the work.
func runQuery() {
	q, err := query.ParseQuery(*flagQueryStr)
	if err != nil {
		usageExit(err.Error())
	}
	res, err := query.Run(*flagSpillDir, q)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "query: %d events, read %d of %d segments\n",
		len(res.Events), res.SegmentsRead, res.SegmentsTotal)
}

// runDiff answers -diff/-diff-spill without a device or compilation: the
// report is computed from the two artifacts (attribution files or spill
// directories, baseline first), written to stdout as the single JSON
// document, and the process exits with the verdict's code (0 neutral or
// improved, 3 regressed).
func runDiff() {
	th := diff.Thresholds{RelPct: *flagDiffRel, AbsCycles: *flagDiffAbs}
	if th.RelPct < 0 || th.AbsCycles < 0 {
		usageExit("-diff-rel and -diff-abs must be non-negative")
	}
	argA, argB := flag.Arg(0), flag.Arg(1)
	var r *diff.Report
	if *flagDiffSpl {
		var sa, sb *diff.SpillSide
		var err error
		r, sa, sb, err = diff.CompareSpills(argA, argB, th)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diff: read %d of %d / %d of %d segments via index\n",
			sa.SegmentsRead, sa.SegmentsTotal, sb.SegmentsRead, sb.SegmentsTotal)
	} else {
		readAttr := func(path string) *analyze.Attribution {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			a, err := analyze.ReadJSON(f)
			if err != nil {
				log.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			return a
		}
		r = diff.Compare(readAttr(argA), readAttr(argB), nil, nil, th)
	}
	if err := diff.WriteReport(os.Stdout, r); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diff: %s (total stall %d -> %d, critical path %d -> %d)\n",
		r.Verdict, r.TotalStallA, r.TotalStallB, r.Critical.CyclesA, r.Critical.CyclesB)
	os.Exit(r.Verdict.ExitCode())
}

func main() {
	flag.Parse()
	validateModes()
	if *flagQueryStr != "" {
		runQuery()
		return
	}
	if *flagScrub {
		runScrub()
		return
	}
	if *flagDiff || *flagDiffSpl {
		runDiff()
		return
	}
	if *flagJSON || debugOn() {
		// keep stdout a single machine-readable document; narration to stderr
		out = os.Stderr
	}
	narrate, ok := narrations[*flagWorkload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *flagWorkload)
		flag.Usage()
		os.Exit(2)
	}
	spec := flagSpec()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	r := must(recipe.Build(spec, openSinks(spec)))
	reportDesign(r.Machine.Design())
	var vcd *sim.VCDRecorder
	if *flagVCD != "" {
		vcd = r.Machine.NewVCD()
	}
	// A time-travel mode owns the run (and stdout) from cycle 0.
	switch {
	case *flagAtCycle >= 0:
		runAtCycle(r)
		return
	case *flagBreak != "":
		runBreak(r.Machine)
		return
	}
	// Execute seals the spill on every outcome, so a diagnosed hang leaves a
	// complete, repairable record behind its report.
	checkRun(r.Execute())
	narrate(r)
	if vcd != nil {
		writeJSONFile(*flagVCD, vcd.Flush)
		fmt.Fprintf(out, "waveform: %s (%d value changes)\n", *flagVCD, vcd.Changes())
	}
	finishRun(r)
}

// scrubVerdict is -scrub's stdout document.
type scrubVerdict struct {
	Dir     string        `json:"dir"`
	Scan    *scrub.Report `json:"scan"`
	Repair  *scrub.Result `json:"repair,omitempty"`
	Healthy bool          `json:"healthy"`
}

// runScrub verifies and self-heals -spill-dir: derived damage (commit
// debris, stale sidecars) is repaired in place, and damaged segment bodies
// are regenerated byte-identically by re-executing the recorded run. Exit 0
// means the directory ends healthy.
func runScrub() {
	dir := *flagSpillDir
	rep, err := scrub.Scan(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rep.Damage {
		fmt.Fprintf(os.Stderr, "scrub: %s: %s (%s) — repair: %s\n", d.File, d.Kind, d.Detail, d.Repair)
	}
	v := scrubVerdict{Dir: dir, Scan: rep, Healthy: rep.Healthy}
	if !rep.Healthy {
		res, rerr := scrub.Repair(dir, recipe.Rebuild)
		v.Repair = res
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "scrub: repair: %v\n", rerr)
		} else {
			v.Healthy = res.Healthy
			fmt.Fprintf(os.Stderr, "scrub: %d orphans removed, %d sidecars rebuilt, %d segments re-executed\n",
				len(res.RemovedOrphans), res.RebuiltSidecars, len(res.Repaired))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&v); err != nil {
		log.Fatal(err)
	}
	verdict := "healthy"
	if !v.Healthy {
		verdict = "UNHEALTHY"
	}
	fmt.Fprintf(os.Stderr, "scrub: %s %s (%d segments)\n", dir, verdict, len(rep.Segments))
	if !v.Healthy {
		os.Exit(1)
	}
}

// reportDesign prints the compiler log, the synthesis fit and, with
// -schedule, the scheduled-datapath report.
func reportDesign(d *hls.Design) {
	if *flagLog {
		fmt.Fprintln(out, "== compiler log ==")
		for _, l := range d.Log {
			fmt.Fprintln(out, "  "+l)
		}
	}
	fmt.Fprintf(out, "== fit: %.1fK ALUTs, %d RAM blocks, %s memory bits, Fmax %.1f MHz ==\n\n",
		d.Area.LogicK(), d.Area.M20Ks, fmtBits(d.Area.MemBits), d.Area.FmaxMHz)
	if *flagSched {
		fmt.Fprintln(out, d.DumpSchedule())
	}
}

func fmtBits(b int64) string { return fmt.Sprintf("%.2fM", float64(b)/1e6) }

// narrations print what each workload's finished run shows a developer.
// recipe.Build staged the run; these only read it.
var narrations = map[string]func(*recipe.Run){
	"matvec-st": narrateMatVec,
	"matvec-nd": narrateMatVec,
	"matmul":    narrateMatMul,
	"chase":     narrateChase,
	"vecadd":    narrateVecAdd,
	"fir":       narrateFIR,
	"chanstall": narrateChanStall,
}

func narrateMatVec(r *recipe.Run) {
	m, u := r.Machine, r.Units[0]
	fmt.Fprintf(out, "%s finished in %d cycles (%.2f us at Fmax)\n",
		u.Kernel().UnitName(), u.FinishedAt(), float64(u.FinishedAt())/m.Design().Area.FmaxMHz)
	if *flagProfile {
		fmt.Fprintln(out, m.Profile(u))
	}
	if !r.Spec.Order {
		return
	}
	i1, i2, i3 := m.Buffer("info1"), m.Buffer("info2"), m.Buffer("info3")
	fmt.Fprintln(out, "\nexecution order capture (first 20 sequence numbers):")
	fmt.Fprintln(out, "  seq  timestamp     k    i")
	for s := 1; s <= 20 && s < len(i1.Data); s++ {
		if i1.Data[s] == 0 {
			break
		}
		fmt.Fprintf(out, "  %3d  %9d  %4d %4d\n", s, i1.Data[s], i2.Data[s], i3.Data[s])
	}
}

func narrateMatMul(r *recipe.Run) {
	m, u := r.Machine, r.Units[0]
	fmt.Fprintf(out, "matmul %dx%d finished in %d cycles\n", recipe.MatMulSize, recipe.MatMulSize, u.FinishedAt())
	if *flagProfile {
		fmt.Fprintln(out, m.Profile(u))
	}
	if !*flagTrace {
		return
	}
	if ctl := r.StallMon; ctl != nil {
		st, lats := monitorLatencies(ctl)
		fmt.Fprintf(out, "\nstall monitor: %d samples, load latency min %d / median %d / max %d cycles\n",
			st.N, st.Min, st.P50, st.Max)
		fmt.Fprintln(out, trace.NewHistogram(lats, 8, 10))
	}
	if ctl := r.Watch; ctl != nil {
		if err := ctl.Stop(0); err != nil {
			log.Fatal(err)
		}
		recs, _ := ctl.ReadTrace(0)
		evs := trace.DecodeWatch(trace.Valid(recs), 16)
		fmt.Fprintf(out, "\nwatchpoint events at address 0: %d\n", len(evs))
		for i, e := range evs {
			if i >= 10 {
				fmt.Fprintln(out, "  ...")
				break
			}
			fmt.Fprintf(out, "  cycle %d: addr %d value %d\n", e.T, e.Addr, e.Tag)
		}
	}
}

// monitorLatencies stops a stall monitor's two instances and pairs their
// before/after traces into per-access latencies.
func monitorLatencies(ctl *host.Controller) (trace.Stats, []int64) {
	for id := 0; id < 2; id++ {
		if err := ctl.Stop(id); err != nil {
			log.Fatal(err)
		}
	}
	before, _ := ctl.ReadTrace(0)
	after, _ := ctl.ReadTrace(1)
	lats := trace.Latencies(trace.Valid(before), trace.Valid(after))
	return trace.Summarize(lats), lats
}

func narrateChase(r *recipe.Run) {
	m, u := r.Machine, r.Units[0]
	res := m.Buffer("out")
	fmt.Fprintf(out, "chase finished in %d cycles; final value %d\n", u.FinishedAt(), res.Data[0])
	if *flagProfile {
		fmt.Fprintln(out, m.Profile(u))
	}
	if kind := r.Spec.TimestampKind(); kind != workload.NoTimestamp {
		fmt.Fprintf(out, "on-chip measured duration: %d cycles (%s timestamps)\n", res.Data[1], kind)
	}
}

func narrateVecAdd(r *recipe.Run) {
	z := r.Machine.Buffer("z")
	fmt.Fprintf(out, "vecadd over %d work-items in %d cycles; z[10]=%d\n", len(z.Data), r.Units[0].FinishedAt(), z.Data[10])
}

func narrateFIR(r *recipe.Run) {
	m, u := r.Machine, r.Units[0]
	fmt.Fprintf(out, "fir over %d samples in %d cycles; y[8]=%d\n", len(m.Buffer("x").Data), u.FinishedAt(), m.Buffer("y").Data[8])
	if *flagProfile {
		fmt.Fprintln(out, m.Profile(u))
	}
	if r.StallMon != nil && *flagTrace {
		st, _ := monitorLatencies(r.StallMon)
		fmt.Fprintf(out, "sample-load latency: min %d / median %d / max %d over %d samples\n",
			st.Min, st.P50, st.Max, st.N)
	}
}

// narrateChanStall reports the §5.1 producer/consumer pair. With -inject,
// faults were applied to the live fabric; with -diagnose, a resulting hang
// printed the structured deadlock report before this point was reached.
//
//	go run ./cmd/oclprof -workload chanstall -inject freeze-read:pipe@500 -diagnose
func narrateChanStall(r *recipe.Run) {
	m, pu, cu := r.Machine, r.Units[0], r.Units[1]
	dst := m.Buffer("dst")
	fmt.Fprintf(out, "producer finished at cycle %d, consumer at cycle %d; dst[%d]=%d\n",
		pu.FinishedAt(), cu.FinishedAt(), len(dst.Data)-1, dst.Data[len(dst.Data)-1])
	if *flagProfile {
		fmt.Fprintln(out, m.Profile(pu, cu))
	}
}
