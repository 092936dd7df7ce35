package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks:
// total is user+nice+system+idle+iowait+irq+softirq+steal (guest time is
// already inside user), steal the time the hypervisor ran someone else.
type cpuTimes struct {
	total, steal uint64
}

func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.total + o.total, c.steal + o.steal} }

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	if c.total < o.total || c.steal < o.steal {
		return cpuTimes{}
	}
	return cpuTimes{c.total - o.total, c.steal - o.steal}
}

// stealFrac is the host's steal share over the interval c spans.
func (c cpuTimes) stealFrac() float64 { return ratio(float64(c.steal), float64(c.total)) }

// parseProcStat reads the aggregate cpu line from /proc/stat content.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu line has %d fields, want at least 9", len(f))
		}
		var c cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat: field %d: %w", i, err)
			}
			c.total += v
			if i == 8 {
				c.steal = v
			}
		}
		return c, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// readCPUTimes samples /proc/stat; where it is unreadable the sample is
// zero and steal reads as 0.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	c, err := parseProcStat(f)
	if err != nil {
		return cpuTimes{}
	}
	return c
}

// processCPU is this process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup runs build, a stack build, and records its wall time and the
// host steal over it as one set-up sample of r.
func (r *round) timeSetup(build func() error) error {
	runtime.GC() // the previous build's garbage is not this build's cost
	st0, t0 := readCPUTimes(), time.Now()
	err := build()
	r.setups = append(r.setups, window{measured: time.Since(t0), steal: readCPUTimes().sub(st0)})
	return err
}

// phaseMeter cuts a round's measured phase into windows, each with its
// wall time, process CPU and host steal.
type phaseMeter struct {
	r     *round
	lat   *[]float64
	ops   *int
	latAt int
	opsAt int
	t0    time.Time
	cpu0  time.Duration
	st0   cpuTimes
}

// startPhase starts the first window of r's measured phase. lat and ops
// are where the workload appends latency samples and counts completed ops.
func startPhase(r *round, lat *[]float64, ops *int) *phaseMeter {
	runtime.GC() // start every measured phase from a collected heap
	m := &phaseMeter{r: r, lat: lat, ops: ops}
	m.reset()
	return m
}

func (m *phaseMeter) reset() {
	m.latAt, m.opsAt = len(*m.lat), *m.ops
	m.t0, m.cpu0, m.st0 = time.Now(), processCPU(), readCPUTimes()
}

// lap closes the current window and starts the next. The windows of a
// round do the same work, so they are comparable.
func (m *phaseMeter) lap() {
	w := window{
		measured: time.Since(m.t0),
		cpu:      processCPU() - m.cpu0,
		steal:    readCPUTimes().sub(m.st0),
		ops:      *m.ops - m.opsAt,
		lat:      append([]float64(nil), (*m.lat)[m.latAt:]...),
	}
	m.r.windows = append(m.r.windows, w)
	m.r.ops += w.ops
	m.reset()
}

type provenance struct {
	commit, dirty, sourceDigest string
	goVersion, cpuModel         string
	nproc, gomaxprocs           int
}

func collectProvenance() provenance {
	p := provenance{
		commit: "none", dirty: "unknown",
		goVersion:  runtime.Version(),
		cpuModel:   cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.dirty = strconv.FormatBool(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	p.sourceDigest = sourceDigest(".")
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// run outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
