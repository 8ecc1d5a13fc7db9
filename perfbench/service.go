package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oclfpga/internal/experiments"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/sim"
)

// oclmonProc is one single-process oclmon server started by the benchmark.
type oclmonProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startOclmon boots oclmon with a durable spill under dir, the checkpoint
// grid and default slots, and waits for /readyz.
func startOclmon(bin, dir string) (*oclmonProc, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "oclmon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p := &oclmonProc{dir: dir}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-runs", "0",
		"-spill-dir", p.spill(),
		"-sample-every", strconv.Itoa(sampleEvery),
		"-checkpoint-every", strconv.Itoa(ckptEvery))
	cmd.Stdout, cmd.Stderr = logf, logf
	// oclmon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start oclmon: %w", err)
	}
	p.cmd = cmd
	deadline := time.Now().Add(30 * time.Second)
	for p.base == "" {
		raw, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(raw); m != nil {
			p.base = string(m[1])
			break
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("oclmon did not announce its address: %s", tail(raw))
		}
		time.Sleep(2 * time.Millisecond)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("oclmon not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *oclmonProc) spill() string { return filepath.Join(p.dir, "spill") }

// stop asks oclmon to shut down and waits for it to exit, killing it if
// it has not within ten seconds.
func (p *oclmonProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// tail returns the last few hundred bytes of a log for an error message.
func tail(b []byte) string {
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// histRun is a finalized run a client may read from.
type histRun struct {
	id  string
	end int64
}

// svcClient is one closed-loop client: one goroutine and one connection.
type svcClient struct {
	id      int
	hc      *http.Client
	base    string
	spill   string        // oclmon's spill root
	refs    map[int]int64 // end cycle of each item count, computed in-process
	bl      histRun       // the pinned baseline
	history []histRun     // baseline first, then this client's finalized runs
}

func newClient(id int, p *oclmonProc, refs map[int]int64, bl histRun) *svcClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &svcClient{
		id: id, base: p.base, spill: p.spill(), refs: refs, bl: bl, history: []histRun{bl},
		hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
	}
}

// loopResult is what one service-mix loop measured.
type loopResult struct {
	runMs      float64 // POST sent to finalize frame received
	admitMs    float64
	readMs     []float64
	frames     int // SSE data frames before the finalize frame
	end        int64
	spillBytes int64
	digest     string
}

// loop runs one service-mix op: admit a run, tail its events to the
// finalize frame, then issue the op's seeded reads against runs that were
// finalized before this loop began.
func (c *svcClient) loop(tr *tracer, o op) (lr loopResult, err error) {
	root := tr.begin("op.loop", -1, o.Index, c.id)
	defer func() { tr.end(root, err, sinkUse{}) }()

	run, err := c.submit(tr, root, o.Index, o.N, &lr)
	if err != nil {
		return lr, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s end=%d", o, run.end)
	for _, r := range o.Reads {
		target := c.history[int(r.Pick*float64(len(c.history)))]
		at := int64(r.Frac * float64(target.end))
		t := time.Now()
		var line string
		err := tr.do("oclmon."+strings.ReplaceAll(r.Kind, "-", "_"), root, o.Index, c.id, func() (err error) {
			line, err = c.read(r.Kind, target, at)
			return err
		})
		lr.readMs = append(lr.readMs, ms(time.Since(t)))
		if err != nil {
			return lr, fmt.Errorf("%s of %s: %w", r.Kind, target.id, err)
		}
		if line != "" {
			fmt.Fprintf(&b, " %s=%s", r.Kind, line)
		}
	}
	if lr.spillBytes, err = dirBytes(filepath.Join(c.spill, run.id)); err != nil {
		return lr, err
	}
	c.history = append(c.history, run)
	lr.digest = b.String()
	return lr, nil
}

var dataPrefix = []byte("data: ")

// submit admits one run of n items and tails its SSE stream to the
// finalize frame, checking the end cycle against the in-process reference.
// It fills lr's admission and run times and frame count.
func (c *svcClient) submit(tr *tracer, parent, index, n int, lr *loopResult) (histRun, error) {
	t0 := time.Now()
	var id string
	err := tr.do("oclmon.admit", parent, index, c.id, func() error {
		body, err := c.call(http.MethodPost, fmt.Sprintf("/runs?n=%d", n), http.StatusAccepted)
		if err != nil {
			return err
		}
		var v struct{ ID string }
		if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
			return fmt.Errorf("admit: bad reply %q", body)
		}
		id = v.ID
		return nil
	})
	lr.admitMs = ms(time.Since(t0))
	if err != nil {
		return histRun{}, err
	}

	sp := tr.begin("oclmon.queue_build", parent, index, c.id)
	resp, err := c.hc.Get(c.base + "/runs/" + id + "/events")
	if err != nil {
		tr.end(sp, err, sinkUse{})
		return histRun{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("events: %s", resp.Status)
		tr.end(sp, err, sinkUse{})
		return histRun{}, err
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	end := int64(-1)
	finalize := false
	// ReadSlice does not copy: a run streams thousands of frames, and the
	// client should spend as little of the two cores on them as it can.
	for end < 0 {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			tr.end(sp, err, sinkUse{})
			return histRun{}, fmt.Errorf("events of %s: stream ended before finalize: %w", id, err)
		}
		switch {
		case string(line) == "event: finalize\n":
			finalize = true
		case bytes.HasPrefix(line, dataPrefix) && finalize:
			var v struct{ EndCycle int64 }
			if err := json.Unmarshal(line[len(dataPrefix):], &v); err != nil {
				tr.end(sp, err, sinkUse{})
				return histRun{}, fmt.Errorf("finalize frame: %w", err)
			}
			end = v.EndCycle
		case bytes.HasPrefix(line, dataPrefix):
			lr.frames++
			if lr.frames == 1 {
				tr.end(sp, nil, sinkUse{})
				sp = tr.begin("oclmon.stream", parent, index, c.id)
			}
		}
	}
	io.Copy(io.Discard, resp.Body)
	lr.runMs = ms(time.Since(t0))
	lr.end = end
	if want, ok := c.refs[n]; !ok || end != want {
		err = fmt.Errorf("run %s (n=%d) finalized at cycle %d, in-process reference %d", id, n, end, want)
	}
	tr.end(sp, err, sinkUse{})
	return histRun{id: id, end: end}, err
}

// read issues one read and checks its reply; it returns the simulated
// statistics the digest keeps ("" when the read contributes none).
func (c *svcClient) read(kind string, t histRun, at int64) (string, error) {
	switch kind {
	case "attr":
		body, err := c.call(http.MethodGet, "/runs/"+t.id+"/attr.json", http.StatusOK)
		if err != nil {
			return "", err
		}
		a, err := analyze.ReadJSON(strings.NewReader(string(body)))
		if err != nil {
			return "", err
		}
		if err := a.Validate(); err != nil {
			return "", err
		}
		if a.EndCycle != t.end {
			return "", fmt.Errorf("attribution ends at %d, run at %d", a.EndCycle, t.end)
		}
		return attrDigest(a), nil
	case "diff":
		body, err := c.call(http.MethodGet, "/runs/"+c.bl.id+"/diff/"+t.id, http.StatusOK)
		if err != nil {
			return "", err
		}
		rep, err := diff.ReadReport(strings.NewReader(string(body)))
		if err != nil {
			return "", err
		}
		return "", rep.Validate()
	case "query":
		q := fmt.Sprintf("track=chan:pipe cycles=[%d,%d]", at, at+20000)
		body, err := c.call(http.MethodGet, "/runs/"+t.id+"/query?q="+url.QueryEscape(q), http.StatusOK)
		if err != nil {
			return "", err
		}
		var res query.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return "", err
		}
		if res.SegmentsRead > res.SegmentsTotal || res.SegmentsTotal == 0 {
			return "", fmt.Errorf("query read %d of %d segments", res.SegmentsRead, res.SegmentsTotal)
		}
		if len(res.Events) == 0 {
			return "", fmt.Errorf("query %q matched nothing", q)
		}
		for _, e := range res.Events {
			if e.Track != "chan:pipe" || e.End < at || e.Start > at+20000 {
				return "", fmt.Errorf("query %q returned %s [%d,%d]", q, e.Track, e.Start, e.End)
			}
		}
		return "", nil
	case "at-cycle":
		body, err := c.call(http.MethodGet, fmt.Sprintf("/runs/%s/at-cycle?n=%d", t.id, at), http.StatusOK)
		if err != nil {
			return "", err
		}
		var st sim.MachineState
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		if st.Cycle != at || st.StateHash == "" {
			return "", fmt.Errorf("state at cycle %d, asked for %d", st.Cycle, at)
		}
		return fmt.Sprintf("%d:%s", st.Cycle, st.StateHash), nil
	}
	return "", fmt.Errorf("unknown read %q", kind)
}

// call issues one request and requires the given status.
func (c *svcClient) call(method, path string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, tail(body))
	}
	return body, nil
}

// serviceRefs computes, in-process, the end cycle of the oclmon design for
// every item count the service-mix sequence can draw.
func serviceRefs() (map[int]int64, error) {
	refs := map[int]int64{}
	for k := 0; k < serviceNK; k++ {
		n := serviceN(k)
		r, err := experiments.RunSimBench(n, false)
		if err != nil {
			return nil, err
		}
		refs[n] = r.Cycles
	}
	return refs, nil
}

// bootService is one service-mix set-up: boot oclmon to /readyz, run the
// baseline and pin it.
func bootService(bin, dir string, refs map[int]int64, n int) (*oclmonProc, histRun, error) {
	p, err := startOclmon(bin, dir)
	if err != nil {
		return nil, histRun{}, err
	}
	c := newClient(-1, p, refs, histRun{})
	bl, err := c.submit(nil, -1, -1, n, &loopResult{})
	for err == nil {
		_, err = c.call(http.MethodPost, "/baselines/oclmon?run="+bl.id, http.StatusOK)
		if err == nil || !strings.Contains(err.Error(), "409") {
			break
		}
		// The finalize frame can precede the supervisor's completed state.
		err = nil
		time.Sleep(time.Millisecond)
	}
	c.hc.CloseIdleConnections()
	if err != nil {
		p.stop()
		return nil, histRun{}, fmt.Errorf("baseline: %w", err)
	}
	return p, bl, nil
}

// oclmonCounters is oclmon's CPU time (s) and supervisor counters.
type oclmonCounters struct {
	cpu                     float64
	completed, failed, shed float64
}

// readCounters reads oclmon's CPU time from /proc and its supervisor
// counters from /metrics.
func readCounters(p *oclmonProc) (oclmonCounters, error) {
	var c oclmonCounters
	cpu, err := procCPU(p.cmd.Process.Pid)
	if err != nil {
		return c, err
	}
	c.cpu = cpu
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, errors.New("metrics: " + resp.Status)
	}
	fields := map[string]*float64{
		"oclmon_runs_completed_total":   &c.completed,
		"oclmon_runs_failed_total":      &c.failed,
		"oclmon_submissions_shed_total": &c.shed,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		if f := fields[name]; f != nil {
			if *f, err = strconv.ParseFloat(val, 64); err != nil {
				return c, fmt.Errorf("metrics: %s: %w", name, err)
			}
		}
	}
	return c, sc.Err()
}
