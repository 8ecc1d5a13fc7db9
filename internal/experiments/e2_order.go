package experiments

import (
	"fmt"

	"oclfpga/internal/kir"
	"oclfpga/internal/recipe"
	"oclfpga/internal/report"
)

// E2Entry is one captured (seq -> timestamp, k, i) row of Figure 2.
type E2Entry struct {
	Seq int
	T   int64
	K   int64
	I   int64
}

// E2Result is one kernel flavour's execution-order capture (Figure 2a/2b).
type E2Result struct {
	Mode       kir.Mode
	Kernel     string
	Entries    []E2Entry // valid entries in sequence order
	TotalCycle int64     // kernel duration — the performance difference
	Correct    bool      // z matched the reference product
}

// E2ExecutionOrder reproduces Figure 2 for one kernel flavour: the
// instrumented matvec (N=50, num=100, capture i<10) on Stratix V.
func E2ExecutionOrder(mode kir.Mode) (*E2Result, error) {
	spec := recipe.Spec{Workload: "matvec-st", Order: true}
	if mode == kir.NDRange {
		spec.Workload = "matvec-nd"
	}
	r, err := stageRecipe("e2/"+mode.String(), spec, nil)
	if err != nil {
		return nil, err
	}
	m, u := r.Machine, r.Units[0]
	if err := m.Run(); err != nil {
		return nil, err
	}
	x, y, z := m.Buffer("x").Data, m.Buffer("y").Data, m.Buffer("z").Data
	info1, info2, info3 := m.Buffer("info1"), m.Buffer("info2"), m.Buffer("info3")

	res := &E2Result{Mode: mode, Kernel: u.Kernel().UnitName(), TotalCycle: u.FinishedAt(), Correct: true}
	for k := range z {
		want := int64(0)
		for i := range y {
			want += x[k*len(y)+i] * y[i]
		}
		if z[k] != int64(int32(want)) {
			res.Correct = false
		}
	}
	for s := 1; s < len(info1.Data); s++ {
		if info1.Data[s] == 0 {
			break
		}
		res.Entries = append(res.Entries, E2Entry{
			Seq: s, T: info1.Data[s], K: info2.Data[s], I: info3.Data[s]})
	}
	return res, nil
}

// Window returns entries for seq in [lo, hi], the slice Figure 2 prints.
func (r *E2Result) Window(lo, hi int) []E2Entry {
	var out []E2Entry
	for _, e := range r.Entries {
		if e.Seq >= lo && e.Seq <= hi {
			out = append(out, e)
		}
	}
	return out
}

// SingleTaskOrder checks the Figure 2(a) property: within the capture, i
// advances before k (all inner-loop iterations of one outer iteration
// complete before the next outer iteration starts).
func (r *E2Result) SingleTaskOrder() bool {
	for n := 1; n < len(r.Entries); n++ {
		prev, cur := r.Entries[n-1], r.Entries[n]
		if cur.K == prev.K && cur.I != prev.I+1 {
			return false
		}
		if cur.K != prev.K && (cur.K != prev.K+1 || cur.I != 0) {
			return false
		}
	}
	return len(r.Entries) > 0
}

// NDRangeOrder checks the Figure 2(b) property: consecutive captures come
// from different work-items at the same inner iteration (k advances while i
// holds) — thread-level parallelism in the pipeline.
func (r *E2Result) NDRangeOrder() bool {
	if len(r.Entries) < 2 {
		return false
	}
	kAdvances := 0
	for n := 1; n < len(r.Entries); n++ {
		prev, cur := r.Entries[n-1], r.Entries[n]
		if cur.K != prev.K && cur.I == prev.I {
			kAdvances++
		}
	}
	// the dominant transition must be "next work-item, same i"
	return kAdvances > len(r.Entries)*3/4
}

// Table renders the Figure-2 window (seq 51..54, like the paper) plus the
// run summary.
func (r *E2Result) Table() string {
	label := "Figure 2(a) single-task (Listing 6)"
	if r.Mode == kir.NDRange {
		label = "Figure 2(b) NDRange (Listing 7)"
	}
	t := report.New(fmt.Sprintf("E2: execution/scheduling order — %s", label),
		"info_seq[n]", "Timestamp", "k", "i")
	for _, e := range r.Window(51, 54) {
		t.Add(fmt.Sprintf("info_seq[%d]", e.Seq), e.T, e.K, e.I)
	}
	s := t.String()
	s += fmt.Sprintf("total cycles: %d, results correct: %v\n", r.TotalCycle, r.Correct)
	return s
}
