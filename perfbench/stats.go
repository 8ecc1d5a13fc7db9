package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// procStatusKB reads a "<key>: <n> kB" line of /proc/<pid>/status; pid 0 is
// this process.
func procStatusKB(pid int, key string) (int64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// resetPeakRSS resets VmHWM of pid (0: this process) to its current RSS.
// Best effort: a kernel without clear_refs leaves the peak cumulative.
func resetPeakRSS(pid int) {
	path := "/proc/self/clear_refs"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	os.WriteFile(path, []byte("5"), 0)
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// procCPU returns utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// hostFingerprint names what a result depends on besides the code. Results
// from hosts with different fingerprints are not compared.
func hostFingerprint() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

// digest accumulates the simulated statistics of the first digestOps ops of
// each client's sequence, keyed by sequence position so completion order
// does not matter. Only statistics fast-forward and engine strategy cannot
// change go in: end cycles, kernel outputs, attribution rows. Host times,
// jump counts, event counts and spill bytes stay out.
type digest struct {
	lines map[string]string
}

const digestOps = 8

func newDigest() *digest { return &digest{lines: map[string]string{}} }

// add records op (client, index) if it falls in the digested prefix.
func (d *digest) add(client, index int, line string) {
	if index < digestOps {
		d.lines[fmt.Sprintf("%d/%03d", client, index)] = line
	}
}

// sum returns the hex digest and how many ops it covers.
func (d *digest) sum() (string, int) {
	keys := make([]string, 0, len(d.lines))
	for k := range d.lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, d.lines[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16], len(keys)
}

// hashInts is a short stable hash of a result vector.
func hashInts(xs []int64) string {
	h := sha256.New()
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// hashString is a short stable hash of a canonical rendering.
func hashString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])[:12]
}
