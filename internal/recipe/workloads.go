package recipe

import (
	"oclfpga/internal/core"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/sim"
	"oclfpga/internal/workload"
)

// workloadDef is one registry entry.
type workloadDef struct {
	items      int   // a sized workload's default N; 0 marks a fixed-size one
	stallLimit int64 // default hang-detection window (0: the simulator's)
	congested  bool  // run on the congested-DRAM memory profile
	// program adds the workload's kernels to p and returns its staging
	// step; Prepare resolves a sized workload's N first.
	program func(s Spec, p *kir.Program) (func(*Run), error)
}

// workloads is the registry: oclprof's seven paper workloads plus the
// table-stream design that the throughput benchmark (simbench) and the
// observability service (oclmon) share under their own names.
var workloads = map[string]workloadDef{
	"matvec-st": {program: matVec},
	"matvec-nd": {program: matVec},
	"matmul":    {program: matMul},
	"chase":     {program: chase},
	"vecadd":    {program: vecAdd},
	"fir":       {program: fir},
	"chanstall": {stallLimit: 2000, program: chanStall}, // diagnose injected hangs promptly
	"simbench":  {items: 2048, congested: true, program: tableStream},
	"oclmon":    {items: 8192, congested: true, program: tableStream},
}

// MatMulSize is the matmul workload's matrix dimension.
const MatMulSize = 16

// TimestampKind is the chase instrumentation variant Timestamps selects.
func (s Spec) TimestampKind() workload.TimestampKind {
	switch s.Timestamps {
	case "cl":
		return workload.CLCounter
	case "hdl":
		return workload.HDLCounter
	}
	return workload.NoTimestamp
}

// The staging helpers below keep the first error in r.err and skip all
// later work; Stage reports it.

// buf allocates a buffer and sets element i to f(i) (f nil: zeros).
func (r *Run) buf(name string, t kir.Type, n int, f func(i int) int64) *mem.Buffer {
	if r.err != nil {
		return nil
	}
	b, err := r.Machine.NewBuffer(name, t, n)
	if err != nil {
		r.err = err
		return nil
	}
	if f != nil {
		for i := range b.Data {
			b.Data[i] = f(i)
		}
	}
	return b
}

// launch launches a kernel, as an NDRange over global work-items when
// global > 0.
func (r *Run) launch(kernel string, global int64, args sim.Args) {
	if r.err != nil {
		return
	}
	var u *sim.Unit
	if global > 0 {
		u, r.err = r.Machine.LaunchND(kernel, global, args)
	} else {
		u, r.err = r.Machine.Launch(kernel, args)
	}
	if r.err == nil {
		r.Units = append(r.Units, u)
	}
}

// monitor attaches a host controller to a debug IP (none when ifc is nil)
// and starts linear sampling on the given instances.
func (r *Run) monitor(ifc *host.Interface, ids ...int) *host.Controller {
	if r.err != nil || ifc == nil {
		return nil
	}
	c, err := host.NewController(r.Machine, ifc)
	for _, id := range ids {
		if err == nil {
			err = c.StartLinear(id)
		}
	}
	if err != nil {
		r.err = err
		return nil
	}
	return c
}

// hostInterface builds the host command interface of a debug IP, if any.
func hostInterface(p *kir.Program, ib *core.IBuffer) *host.Interface {
	if ib == nil {
		return nil
	}
	return host.BuildInterface(p, ib)
}

func mod(k int) func(int) int64 { return func(i int) int64 { return int64(i % k) } }

func matVec(s Spec, p *kir.Program) (func(*Run), error) {
	mode := kir.SingleTask
	if s.Workload == "matvec-nd" {
		mode = kir.NDRange
	}
	mv := workload.BuildMatVec(p, workload.MatVecConfig{Mode: mode, Instrument: s.Order})
	return func(r *Run) {
		cfg := mv.Config
		x := r.buf("x", kir.I32, cfg.N*cfg.Num, mod(7))
		y := r.buf("y", kir.I32, cfg.Num, mod(5))
		z := r.buf("z", kir.I32, cfg.N, nil)
		args := sim.Args{"x": x, "y": y, "z": z}
		if s.Order {
			args["info1"] = r.buf("info1", kir.I64, mv.InfoSize, nil)
			args["info2"] = r.buf("info2", kir.I32, mv.InfoSize, nil)
			args["info3"] = r.buf("info3", kir.I32, mv.InfoSize, nil)
		}
		var global int64
		if mode == kir.NDRange {
			global = int64(cfg.N)
		}
		r.launch(mv.KernelName, global, args)
	}, nil
}

func matMul(s Spec, p *kir.Program) (func(*Run), error) {
	const n = MatMulSize
	mm, err := workload.BuildMatMul(p, workload.MatMulConfig{
		Size: n, StallMonitor: s.StallMon, Watchpoint: s.Watch, Depth: 256,
	})
	if err != nil {
		return nil, err
	}
	sm, wp := hostInterface(p, mm.SM), hostInterface(p, mm.WP)
	return func(r *Run) {
		a := r.buf("data_a", kir.I32, n*n, mod(13))
		b := r.buf("data_b", kir.I32, n*n, mod(9))
		c := r.buf("data_c", kir.I32, n*n, nil)
		r.StallMon = r.monitor(sm, 0, 1)
		r.Watch = r.monitor(wp, 0)
		r.launch(mm.KernelName, 0, sim.Args{"data_a": a, "data_b": b, "data_c": c})
	}, nil
}

func chase(s Spec, p *kir.Program) (func(*Run), error) {
	ch, err := workload.BuildChase(p, workload.ChaseConfig{Steps: 2000, Kind: s.TimestampKind()})
	if err != nil {
		return nil, err
	}
	return func(r *Run) {
		const size = 1 << 14
		next := r.buf("next", kir.I32, size, func(i int) int64 { return int64((i*1103 + 331) % size) })
		out := r.buf("out", kir.I64, 2, nil)
		r.launch(ch.KernelName, 0, sim.Args{"next": next, "out": out})
	}, nil
}

func vecAdd(_ Spec, p *kir.Program) (func(*Run), error) {
	const n = 1024
	name := workload.BuildVecAdd(p)
	return func(r *Run) {
		x := r.buf("x", kir.I32, n, func(i int) int64 { return int64(i) })
		y := r.buf("y", kir.I32, n, func(i int) int64 { return int64(2 * i) })
		z := r.buf("z", kir.I32, n, nil)
		r.launch(name, n, sim.Args{"x": x, "y": y, "z": z})
	}, nil
}

func fir(s Spec, p *kir.Program) (func(*Run), error) {
	const taps, n = 8, 512
	f, err := workload.BuildFIR(p, workload.FIRConfig{Taps: taps, N: n, StallMonitor: s.StallMon})
	if err != nil {
		return nil, err
	}
	sm := hostInterface(p, f.SM)
	return func(r *Run) {
		x := r.buf("x", kir.I32, n, func(i int) int64 { return int64(i%33 - 16) })
		c := r.buf("coeff", kir.I32, taps, func(i int) int64 { return int64(taps - i) })
		y := r.buf("y", kir.I32, n, nil)
		r.StallMon = r.monitor(sm, 0, 1)
		r.launch(f.KernelName, 0, sim.Args{"x": x, "coeff": c, "y": y})
	}, nil
}

// producer adds the kernel that streams n items of its src buffer into pipe
// at full rate.
func producer(p *kir.Program, pipe *kir.Chan, n int) {
	k := p.AddKernel("producer", kir.SingleTask)
	src := k.AddGlobal("src", kir.I32)
	k.NewBuilder().ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.ChanWrite(pipe, lb.Load(src, i))
		return nil
	})
}

// chanStall is the §5.1 producer/consumer pair (the E9 experiment's
// program) as a fault-injection playground: a fast producer feeds a slow
// consumer through a depth-4 channel named "pipe".
func chanStall(_ Spec, p *kir.Program) (func(*Run), error) {
	const n = 256
	pipe := p.AddChan("pipe", 4, kir.I32)
	producer(p, pipe, n)
	cons := p.AddKernel("consumer", kir.SingleTask)
	dst := cons.AddGlobal("dst", kir.I32)
	cons.NewBuilder().ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		v := lb.ChanRead(pipe)
		slow := lb.ForN("j", 2, []kir.Val{v}, func(jb *kir.Builder, j kir.Val, c []kir.Val) []kir.Val {
			return []kir.Val{jb.Div(jb.Add(c[0], jb.Ci32(3)), jb.Ci32(1))}
		})
		lb.Store(dst, i, slow[0])
		return nil
	})
	return func(r *Run) {
		src := r.buf("src", kir.I32, n, func(i int) int64 { return int64(i + 1) })
		dst := r.buf("dst", kir.I32, n, nil)
		r.launch("producer", 0, sim.Args{"src": src})
		r.launch("consumer", 0, sim.Args{"dst": dst})
	}, nil
}

// The table-stream design is stall-heavy on purpose — the regime the
// fast-forward path targets. The consumer's table loads stride by a prime
// larger than a DRAM row, so nearly every access pays the row activate
// against a scheduled latency of 7, and a second load addressed by the
// first's result serializes two such windows; the throttled consumer backs
// the depth-4 pipe up into the producer. On the congested memory profile an
// item costs roughly 400 cycles, most of them with no unit able to make
// progress. It is uninstrumented: autorun monitors poll every cycle and
// would hide the quiescent windows.
const (
	tableElems   = 1 << 14 // 16 DRAM rows of i32 at the default 4096-byte row buffer
	tableStride  = 1031    // prime > one row of i32 elements: every load a row miss
	tableStride2 = 523     // second, dependent stride — a second miss per item
)

func tableStream(s Spec, p *kir.Program) (func(*Run), error) {
	n := s.N
	pipe := p.AddChan("pipe", 4, kir.I32)
	producer(p, pipe, n)
	cons := p.AddKernel("consumer", kir.SingleTask)
	tbl := cons.AddGlobal("tbl", kir.I32)
	dst := cons.AddGlobal("dst", kir.I32)
	cb := cons.NewBuilder()
	// The carried value feeds the next iteration's load address, so the two
	// row-miss latencies serialize across iterations instead of overlapping
	// in the pipeline — the loop's true II is the memory round-trip.
	cb.ForN("i", int64(n), []kir.Val{cb.Ci32(0)}, func(lb *kir.Builder, i kir.Val, c []kir.Val) []kir.Val {
		v := lb.ChanRead(pipe)
		w := lb.Load(tbl, lb.And(lb.Add(c[0], lb.Mul(i, lb.Ci32(tableStride))), lb.Ci32(tableElems-1)))
		w2 := lb.Load(tbl, lb.And(lb.Mul(lb.Add(w, i), lb.Ci32(tableStride2)), lb.Ci32(tableElems-1)))
		lb.Store(dst, i, lb.Div(lb.Add(v, w2), lb.Ci32(2)))
		return []kir.Val{w2}
	})
	return func(r *Run) {
		src := r.buf("src", kir.I32, n, func(i int) int64 { return int64(i + 1) })
		tbl := r.buf("tbl", kir.I32, tableElems, mod(97))
		dst := r.buf("dst", kir.I32, n, nil)
		r.launch("producer", 0, sim.Args{"src": src})
		r.launch("consumer", 0, sim.Args{"tbl": tbl, "dst": dst})
	}, nil
}
