package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"oclfpga/internal/device"
	"oclfpga/internal/experiments"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
	"oclfpga/internal/workload"
)

// opResult is what an op reports besides its wall time.
type opResult struct {
	simCycles  int64
	ffSkipped  int64
	spillBytes int64
	segments   int
	sinkEvents int64 // Event calls the timing decorator saw (traced runs)
	sinkCalls  int64 // Event and Sample calls it saw
	digest     string
}

// Spill-write settings, matching oclmon's defaults and its checkpoint grid.
const (
	sampleEvery = 1000
	ckptEvery   = 65536
	segLines    = 4096
	segBytes    = 1 << 20
)

// spillOp is one profiled run of the producer->consumer design with a
// durable segmented spill: fresh compile, congested DRAM, fast-forward on,
// the recorder sampling every 1000 cycles and checkpointing on the grid.
func spillOp(tr *tracer, o op, dir string) (res opResult, err error) {
	root := tr.begin("op.spill", -1, o.Index, 0)
	defer func() { tr.end(root, err, sinkUse{}) }()

	var d *hls.Design
	if err := tr.do("hls.compile", root, o.Index, 0, func() (err error) {
		d, err = experiments.CompileSimBench(o.N)
		return err
	}); err != nil {
		return res, err
	}
	var seg *obs.SegmentSink
	if err := tr.do("obs.open", root, o.Index, 0, func() (err error) {
		seg, err = obs.NewSegmentSink(obs.SegmentConfig{
			Dir: dir, Design: "simbench", SampleEvery: sampleEvery,
			MaxLines: segLines, MaxBytes: segBytes,
			Meta: map[string]string{"workload": "simbench", "n": strconv.Itoa(o.N), "ckptEvery": strconv.Itoa(ckptEvery)},
		})
		return err
	}); err != nil {
		return res, err
	}
	var sink obs.Sink = seg
	var timed *timedSink
	if tr != nil {
		timed = &timedSink{next: seg}
		sink = timed
	}

	var m *sim.Machine
	var dst *mem.Buffer
	if err := tr.do("sim.build", root, o.Index, 0, func() (err error) {
		m, dst, err = buildSimBench(d, o.N, sink)
		return err
	}); err != nil {
		return res, err
	}
	u0 := timed.now()
	id := tr.begin("sim.run", root, o.Index, 0)
	err = m.Run()
	tr.end(id, err, timed.since(u0))
	if err != nil {
		return res, err
	}
	u0 = timed.now()
	id = tr.begin("obs.finalize", root, o.Index, 0)
	m.Observer() // closes the record; the recorder finalizes the spill
	err = m.ObserveErr()
	tr.end(id, err, timed.since(u0))
	if err != nil {
		return res, err
	}

	if err := tr.do("check.spill", root, o.Index, 0, func() error {
		if err := checkSimBench(dst.Data, o.N); err != nil {
			return err
		}
		man, err := checkManifest(dir, m.Cycle())
		if err != nil {
			return err
		}
		res.segments = len(man.Segments)
		res.spillBytes, err = dirBytes(dir)
		return err
	}); err != nil {
		return res, err
	}
	ff := m.FastForwardStats()
	res.simCycles, res.ffSkipped = m.Cycle(), ff.Skipped
	if timed != nil {
		res.sinkEvents, res.sinkCalls = timed.events, timed.use.Calls
	}
	res.digest = fmt.Sprintf("%s end=%d dst=%s", o, m.Cycle(), hashInts(dst.Data))
	return res, nil
}

// buildSimBench stages the compiled producer->consumer design the way
// oclmon does: congested DRAM (a row miss costs 200 cycles against the
// compiler's 7), the recorder on, buffers filled, both kernels launched.
func buildSimBench(d *hls.Design, n int, sink obs.Sink) (*sim.Machine, *mem.Buffer, error) {
	m := sim.New(d, sim.Options{
		MemConfig: mem.Config{RowHitLat: 60, RowMissLat: 200},
		Observe:   &obs.Config{SampleEvery: sampleEvery, CheckpointEvery: ckptEvery, Sink: sink},
	})
	src, err := m.NewBuffer("src", kir.I32, n)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := m.NewBuffer("tbl", kir.I32, simTblElems)
	if err != nil {
		return nil, nil, err
	}
	dst, err := m.NewBuffer("dst", kir.I32, n)
	if err != nil {
		return nil, nil, err
	}
	for i := range src.Data {
		src.Data[i] = int64(i + 1)
	}
	for i := range tbl.Data {
		tbl.Data[i] = int64(i % 97)
	}
	if _, err := m.Launch("producer", sim.Args{"src": src}); err != nil {
		return nil, nil, err
	}
	if _, err := m.Launch("consumer", sim.Args{"tbl": tbl, "dst": dst}); err != nil {
		return nil, nil, err
	}
	return m, dst, nil
}

// The producer->consumer design's table geometry (internal/experiments
// simbench.go and cmd/oclmon buildWorkload use the same constants).
const (
	simTblElems = 1 << 14
	simStride1  = 1031
	simStride2  = 523
)

// checkSimBench compares dst with the consumer loop computed in plain Go.
func checkSimBench(dst []int64, n int) error {
	c := int64(0)
	for i := 0; i < n; i++ {
		w := ((c + int64(i)*simStride1) & (simTblElems - 1)) % 97
		w2 := (((w + int64(i)) * simStride2) & (simTblElems - 1)) % 97
		if want := (int64(i+1) + w2) / 2; dst[i] != want {
			return fmt.Errorf("dst[%d] = %d, want %d", i, dst[i], want)
		}
		c = w2
	}
	return nil
}

// checkManifest requires a sealed, complete spill whose segments are all on
// disk at their recorded sizes.
func checkManifest(dir string, endCycle int64) (*obs.Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	man, err := obs.ParseManifest(raw)
	if err != nil {
		return nil, err
	}
	if !man.Complete || man.EndCycle != endCycle {
		return nil, fmt.Errorf("manifest: complete=%v endCycle=%d, want complete at %d", man.Complete, man.EndCycle, endCycle)
	}
	if len(man.Segments) == 0 {
		return nil, errors.New("manifest: no segments")
	}
	for _, s := range man.Segments {
		info, err := os.Stat(filepath.Join(dir, s.File))
		if err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		if s.FileBytes != 0 && info.Size() != s.FileBytes {
			return nil, fmt.Errorf("manifest: %s holds %d bytes, sealed at %d", s.File, info.Size(), s.FileBytes)
		}
	}
	return man, nil
}

// kernelSession is one oclprof-style profiling session of a paper kernel:
// the program with its ibuffer banks and host interfaces, ready to compile.
type kernelSession struct {
	prog *kir.Program
	ifc  *host.Interface
	// stage allocates and fills the buffers and returns the launch args.
	stage func(m *sim.Machine) (sim.Args, error)
	// check compares kernel outputs with plain Go and the decoded trace
	// (per ibuffer instance, never-written entries dropped) with what the
	// instrumentation must have captured; it returns the outputs.
	check  func(m *sim.Machine, recs [][]trace.Record) ([]int64, error)
	kernel string
}

// kernelOp runs one profiling session: compile, build and arm, run with the
// in-memory recorder, read the traces back through the host interface, and
// attribute stalls off the recorder.
func kernelOp(tr *tracer, o op, _ string) (res opResult, err error) {
	root := tr.begin("op."+o.Kind, -1, o.Index, 0)
	defer func() { tr.end(root, err, sinkUse{}) }()

	ks, err := newSession(o)
	if err != nil {
		return res, err
	}
	var d *hls.Design
	if err := tr.do("hls.compile", root, o.Index, 0, func() (err error) {
		d, err = hls.Compile(ks.prog, device.StratixV(), hls.Options{})
		return err
	}); err != nil {
		return res, err
	}
	var (
		m    *sim.Machine
		ctl  *host.Controller
		args sim.Args
	)
	if err := tr.do("sim.build", root, o.Index, 0, func() (err error) {
		m = sim.New(d, sim.Options{Observe: &obs.Config{SampleEvery: sampleEvery}})
		if args, err = ks.stage(m); err != nil {
			return err
		}
		ctl, err = host.NewController(m, ks.ifc)
		return err
	}); err != nil {
		return res, err
	}
	nInst := ks.ifc.IB.Config.N
	if err := tr.do("host.arm", root, o.Index, 0, func() error {
		for id := 0; id < nInst; id++ {
			if err := ctl.StartLinear(id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}
	if err := tr.do("sim.run", root, o.Index, 0, func() error {
		if _, err := m.Launch(ks.kernel, args); err != nil {
			return err
		}
		return m.Run()
	}); err != nil {
		return res, err
	}
	recs := make([][]trace.Record, nInst)
	if err := tr.do("host.readback", root, o.Index, 0, func() error {
		for id := 0; id < nInst; id++ {
			if err := ctl.Stop(id); err != nil {
				return err
			}
		}
		for id := 0; id < nInst; id++ {
			r, err := ctl.ReadTrace(id)
			if err != nil {
				return err
			}
			recs[id] = trace.Valid(r)
		}
		return nil
	}); err != nil {
		return res, err
	}
	var attr *analyze.Attribution
	if err := tr.do("analyze.attribute", root, o.Index, 0, func() error {
		attr = analyze.AttributeRecorder(m.Observer())
		return attr.Validate()
	}); err != nil {
		return res, err
	}
	var outs []int64
	if err := tr.do("check.kernel", root, o.Index, 0, func() (err error) {
		outs, err = ks.check(m, recs)
		return err
	}); err != nil {
		return res, err
	}
	res.simCycles, res.ffSkipped = m.Cycle(), m.FastForwardStats().Skipped
	counts := make([]string, nInst)
	for i, r := range recs {
		counts[i] = strconv.Itoa(len(r))
	}
	res.digest = fmt.Sprintf("%s end=%d out=%s recs=%s attr=%s", o, m.Cycle(), hashInts(outs),
		strings.Join(counts, ","), attrDigest(attr))
	return res, nil
}

// attrDigest condenses an attribution to its simulated statistics.
func attrDigest(a *analyze.Attribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d total=%d crit=%d", a.EndCycle, a.TotalStallCycles, a.CriticalCycles)
	for _, r := range a.Rows {
		fmt.Fprintf(&b, ";%s|%s|%s|%d|%d|%d", r.Unit, r.Op, r.Resource, r.Cycles, r.Spans, r.MaxSpan)
	}
	return hashString(b.String())
}

// newSession builds the program of a paper-kernel op.
func newSession(o op) (*kernelSession, error) {
	p := kir.NewProgram(o.Kind)
	switch o.Kind {
	case "matmul-sm", "matmul-wp":
		n := o.N
		mm, err := workload.BuildMatMul(p, workload.MatMulConfig{
			Size: n, StallMonitor: o.Kind == "matmul-sm",
			Watchpoint: o.Kind == "matmul-wp", WatchAddr: o.Watch, Depth: 256,
		})
		if err != nil {
			return nil, err
		}
		ib := mm.SM
		if ib == nil {
			ib = mm.WP
		}
		return &kernelSession{
			prog: p, ifc: host.BuildInterface(p, ib), kernel: mm.KernelName,
			stage: func(m *sim.Machine) (sim.Args, error) {
				a, err := filled(m, "data_a", kir.I32, n*n, func(i int) int64 { return int64(i % 13) })
				if err != nil {
					return nil, err
				}
				b, err := filled(m, "data_b", kir.I32, n*n, func(i int) int64 { return int64(i % 9) })
				if err != nil {
					return nil, err
				}
				c, err := m.NewBuffer("data_c", kir.I32, n*n)
				return sim.Args{"data_a": a, "data_b": b, "data_c": c}, err
			},
			check: func(m *sim.Machine, recs [][]trace.Record) ([]int64, error) {
				c := m.Buffer("data_c").Data
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						var want int64
						for k := 0; k < n; k++ {
							want += int64((i*n+k)%13) * int64((k*n+j)%9)
						}
						if c[i*n+j] != want {
							return nil, fmt.Errorf("data_c[%d][%d] = %d, want %d", i, j, c[i*n+j], want)
						}
					}
				}
				if o.Kind == "matmul-sm" {
					return c, checkStallMonitor(recs, min(256, n*n*n))
				}
				// data_a[Watch] is read once per (i = Watch/n, j, k = Watch%n).
				if len(recs[0]) != n {
					return nil, fmt.Errorf("watchpoint: %d hits, want %d reads of data_a[%d]", len(recs[0]), n, o.Watch)
				}
				for _, e := range trace.DecodeWatch(recs[0], 16) {
					if e.Addr != o.Watch {
						return nil, fmt.Errorf("watchpoint: hit at address %d, watching %d", e.Addr, o.Watch)
					}
				}
				return c, nil
			},
		}, nil
	case "chase-hdl", "chase-cl":
		kind := workload.HDLCounter
		if o.Kind == "chase-cl" {
			kind = workload.CLCounter
		}
		ch, err := workload.BuildChase(p, workload.ChaseConfig{Steps: o.N, Kind: kind, TraceDepth: 16})
		if err != nil {
			return nil, err
		}
		const tbl = 1 << 14
		next := func(i int) int64 { return int64((i*1103 + 331) % tbl) }
		return &kernelSession{
			prog: p, ifc: host.BuildInterface(p, ch.IB), kernel: ch.KernelName,
			stage: func(m *sim.Machine) (sim.Args, error) {
				t, err := filled(m, "next", kir.I32, tbl, next)
				if err != nil {
					return nil, err
				}
				out, err := m.NewBuffer("out", kir.I64, 2)
				return sim.Args{"next": t, "out": out}, err
			},
			check: func(m *sim.Machine, recs [][]trace.Record) ([]int64, error) {
				out := m.Buffer("out").Data
				v := int64(0)
				for s := 0; s < o.N; s++ {
					v = next(int(v))
				}
				if out[0] != v {
					return nil, fmt.Errorf("chase: final value %d, want %d", out[0], v)
				}
				if out[1] < int64(o.N) {
					return nil, fmt.Errorf("chase: measured %d cycles for %d dependent loads", out[1], o.N)
				}
				if len(recs[0]) != 1 {
					return nil, fmt.Errorf("chase: %d trace records, want the end timestamp alone", len(recs[0]))
				}
				return out, nil
			},
		}, nil
	case "fir-sm":
		const taps = 8
		n := o.N
		f, err := workload.BuildFIR(p, workload.FIRConfig{Taps: taps, N: n, StallMonitor: true, Depth: 256})
		if err != nil {
			return nil, err
		}
		x := func(i int) int64 { return int64(i%33 - 16) }
		coeff := func(t int) int64 { return int64(taps - t) }
		return &kernelSession{
			prog: p, ifc: host.BuildInterface(p, f.SM), kernel: f.KernelName,
			stage: func(m *sim.Machine) (sim.Args, error) {
				bx, err := filled(m, "x", kir.I32, n, x)
				if err != nil {
					return nil, err
				}
				bc, err := filled(m, "coeff", kir.I32, taps, coeff)
				if err != nil {
					return nil, err
				}
				by, err := m.NewBuffer("y", kir.I32, n)
				return sim.Args{"x": bx, "coeff": bc, "y": by}, err
			},
			check: func(m *sim.Machine, recs [][]trace.Record) ([]int64, error) {
				y := m.Buffer("y").Data
				for i := 0; i < n; i++ {
					var want int64
					for t := 0; t < taps && t <= i; t++ {
						want += coeff(t) * x(i-t)
					}
					if y[i] != want {
						return nil, fmt.Errorf("fir: y[%d] = %d, want %d", i, y[i], want)
					}
				}
				return y, checkStallMonitor(recs, min(256, n))
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown paper kernel %q", o.Kind)
}

// checkStallMonitor requires both snapshot sites to have filled want
// entries in linear mode, in timestamp order, each "after" no earlier than
// its "before".
func checkStallMonitor(recs [][]trace.Record, want int) error {
	if len(recs) != 2 || len(recs[0]) != want || len(recs[1]) != want {
		return fmt.Errorf("stall monitor: %d sites, want 2 with %d records each", len(recs), want)
	}
	for _, r := range recs {
		if !trace.OrderedByT(r) {
			return errors.New("stall monitor: records out of timestamp order")
		}
	}
	for _, lat := range trace.Latencies(recs[0], recs[1]) {
		if lat < 0 {
			return fmt.Errorf("stall monitor: negative load latency %d", lat)
		}
	}
	return nil
}

// filled allocates a buffer and fills element i with f(i).
func filled(m *sim.Machine, name string, t kir.Type, n int, f func(int) int64) (*mem.Buffer, error) {
	b, err := m.NewBuffer(name, t, n)
	if err != nil {
		return nil, err
	}
	for i := range b.Data {
		b.Data[i] = f(i)
	}
	return b, nil
}
