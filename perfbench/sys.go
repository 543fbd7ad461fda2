package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recordEnv captures what a result depends on besides the code: CPUs,
// GOMAXPROCS, the Go version, and the commit. A checkout without git
// metadata is identified by a digest of its Go sources instead.
func recordEnv() (map[string]any, error) {
	env := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	env["source_sha256"] = digest
	return env, nil
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in walk order), skipping dot-directories such as the build
// cache.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClock times a span of synchronous calls into the program by the
// CPU time of the calling thread: the calls' service time, without the
// preemptions that dominate wall-clock tails on a shared host. The
// goroutine stays locked to its OS thread until stop.
type cpuClock struct{ t0 time.Duration }

func startCPU() cpuClock {
	runtime.LockOSThread()
	return cpuClock{threadCPU()}
}

func (c cpuClock) stop() time.Duration {
	d := threadCPU() - c.t0
	runtime.UnlockOSThread()
	return d
}

// cpuCall times one call with a cpuClock.
func cpuCall(f func()) time.Duration {
	c := startCPU()
	f()
	return c.stop()
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSample is a snapshot of the Go runtime counters the benchmark uses.
type rtSample struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}

// runtimeLayer stores allocs per step and the GC share of available
// CPU between two samples.
func runtimeLayer(m map[string]float64, a, b rtSample, steps int) {
	if steps > 0 {
		m["runtime.allocs_per_step"] = float64(b.allocs-a.allocs) / float64(steps)
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	} else {
		m["runtime.gc_cpu_frac"] = 0
	}
}

// span is one timed call from the benchmark into the program, or one
// layer replay. Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// stepDelta is one traced step's change in the program's own counters.
type stepDelta struct {
	Step     int    `json:"step"`
	WallNs   int64  `json:"wall_ns"`
	Arrived  int64  `json:"arrived"`
	Kept     int64  `json:"kept"`
	Shed     int64  `json:"shed"`
	Selects  int64  `json:"select_calls"`
	SelectNs int64  `json:"select_ns"`
	Allocs   uint64 `json:"allocs"`
}

// tracer keeps spans and step deltas in memory; a disabled tracer
// records nothing. It is safe for concurrent use.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
	steps  []stepDelta
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span and returns its index (or -1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].End = int64(time.Since(t.origin))
		t.mu.Unlock()
	}
}

func (t *tracer) step(d stepDelta) {
	if t.on {
		t.mu.Lock()
		t.steps = append(t.steps, d)
		t.mu.Unlock()
	}
}

// write stores the trace next to the build output.
func (t *tracer) write(workload string, seed int64, env map[string]any, out *outcome) error {
	b, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "env": env,
		"layer": out.layer, "info": out.info,
		"spans": t.spans, "steps": t.steps,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	return os.WriteFile(tracePath(workload, seed), b, 0o644)
}
