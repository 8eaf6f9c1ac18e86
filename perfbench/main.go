// Command perfbench is the repository benchmark. It runs one of three
// workloads through the repo's public entry points for a fixed wall-clock
// budget, checks every repeat's output against a serial reference run,
// and prints its metrics with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload daily-fleet|hourly-ech|serving-load
//	          [--seed N] [--world-seed N] [--workload-seed N]
//	          [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves
// untraced and traced repeats and reports the per-layer metrics. See
// README.md for every metric and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// params are the inputs a run derives everything from.
type params struct {
	shape
	workload  string
	worldSeed int64
	loadSeed  int64
	seconds   float64
	trace     bool
	setupOnly bool // stop each repeat after its set-up
}

// Minimum repeats per run, whatever --seconds says, so a median exists.
const (
	minRepeats       = 3
	minTracedRepeats = 2
)

// setupsPerRepeat extra set-ups run before each measured repeat. Set-up
// takes about 0.1 s, short enough for one busy moment on the host to
// skew a sample, so setup_s is a median over many samples spread across
// the run. Like ops_per_cpu_s it counts process CPU time, not wall time
// (see opsPerCPUSec).
const setupsPerRepeat = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: daily-fleet, hourly-ech or serving-load")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's input: the world for the campaigns, the client population for serving-load")
	worldSeed := fs.Int64("world-seed", -1, "world generation seed (-1: from --seed for the campaigns, 7 for serving-load)")
	loadSeed := fs.Int64("workload-seed", -1, "serving-load client population seed (-1: --seed)")
	seconds := fs.Float64("seconds", 30, "wall-clock seconds of measured repeats")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced repeats")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload daily-fleet|hourly-ech|serving-load, --seconds > 0, --trace 0|1\n")
		return 2
	}
	p := params{shape: benchShape, workload: *name, worldSeed: defaultSeed, loadSeed: *seed,
		seconds: *seconds, trace: *trace == 1}
	if spec.seedsWorld {
		p.worldSeed = *seed
	}
	if *worldSeed >= 0 {
		p.worldSeed = *worldSeed
	}
	if *loadSeed >= 0 {
		p.loadSeed = *loadSeed
	}
	res, err := measure(p, spec.run, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs the serial reference, then repeats until the time budget
// is spent, and reduces the repeats to the run's metrics.
func measure(p params, fn func(params, int, *tracer) (*repeat, error), log io.Writer) (*result, error) {
	workers := runtime.NumCPU()
	fmt.Fprintf(log, "perfbench: workload=%s world-seed=%d workload-seed=%d workers=%d seconds=%g trace=%v\n",
		p.workload, p.worldSeed, p.loadSeed, workers, p.seconds, p.trace)

	// The reference runs with every worker count at 1 and is not timed:
	// it pins the output each measured repeat must reproduce.
	runtime.GC()
	ref, err := fn(p, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	for _, d := range ref.digests {
		fmt.Fprintf(log, "reference %s sha256 %s\n", d.name, d.sum)
	}

	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	setups := []float64{ref.setupCPU.Seconds()}
	var untraced, traced []*repeat
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var last time.Duration // length of the previous iteration
	for i := 0; ; i++ {
		// Stop once the next iteration would end more than half its
		// length past the deadline, so a run measures about --seconds.
		out := time.Until(deadline) < last/2
		done := out && len(untraced) >= minRepeats
		if p.trace {
			done = out && len(untraced) >= minTracedRepeats && len(traced) >= minTracedRepeats
		}
		if done {
			break
		}
		iterStart := time.Now()
		sp := p
		sp.setupOnly = true
		for range setupsPerRepeat {
			runtime.GC()
			s, err := fn(sp, workers, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.setupCPU.Seconds())
		}
		var rtr *tracer
		if p.trace && i%2 == 1 {
			rtr = tr
		}
		runtime.GC()
		r, err := fn(p, workers, rtr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupCPU.Seconds())
		bad := r.mismatch(ref)
		res.Attempted += r.ops
		if bad != "" {
			res.Failed += r.ops
		} else {
			res.Failed += r.failed
		}
		kind := "untraced"
		if rtr != nil {
			kind = "traced"
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		last = time.Since(iterStart)
		check := "output matches reference"
		if bad != "" {
			check = "OUTPUT DIFFERS: " + bad
		}
		fmt.Fprintf(log, "repeat %d (%s): ops=%d failed=%d simnet.queries=%.0f setup=%.3fs timed=%.3fs cpu=%.3fs ops/s=%.1f ops/cpu-s=%.1f; %s\n",
			i+1, kind, r.ops, r.failed, r.values["simnet.queries"], r.setup.Seconds(), r.timed.Seconds(), r.cpu.Seconds(),
			r.opsPerSec(), r.opsPerCPUSec(), check)
	}
	if tr != nil && tr.err != nil {
		return nil, tr.err
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !p.trace {
		put("setup_s", "s", median(setups))
		put("ops_per_cpu_s", "1/s", median(collect(untraced, (*repeat).opsPerCPUSec)))
		put("alloc_bytes_per_op", "B", median(collect(untraced, (*repeat).allocPerOp)))
		put("peak_rss_mb", "MB", peakRSSMB())
	} else {
		for l, v := range shares(tr.cpu) {
			put("cpu_pct."+l, "%", v)
		}
		for l, v := range shares(tr.alloc) {
			put("alloc_pct."+l, "%", v)
		}
		for _, m := range layerMetrics {
			put(m.name, m.unit, median(collect(traced, func(r *repeat) float64 { return r.values[m.name] })))
		}
		u := median(collect(untraced, (*repeat).opsPerCPUSec))
		t := median(collect(traced, (*repeat).opsPerCPUSec))
		put("trace.overhead_pct", "%", 100*(u-t)/u)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "metric %s %v %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// layerMetrics are the per-layer metrics read from each traced repeat's
// stage timings and counters; a workload that never reaches a layer
// reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"providers.build_world_s", "s"},
	{"workload.new_s", "s"},
	{"core.run_daily_s", "s"},
	{"core.run_hourly_ech_s", "s"},
	{"workload.run_s", "s"},
	{"dataset.write_json_s", "s"},
	{"analysis.tables_s", "s"},
	{"providers.auth_queries", "count"},
	{"providers.auth_busy_s", "s"},
	{"providers.auth_us_per_query", "us"},
	{"transport.exchange_p50_us", "us"},
	{"transport.exchange_p99_us", "us"},
	{"transport.exchange_samples", "count"},
	{"transport.cache_hit_ratio", "ratio"},
	{"transport.attempts_per_exchange", "ratio"},
	{"transport.wasted", "ratio"},
	{"workload.stub_hit_ratio", "ratio"},
	{"workload.fleet_exchanges", "count"},
	{"simnet.queries", "count"},
	{"dataset.store_bytes", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.cpus_busy", "ratio"},
}

// repeat is one measured execution of a workload.
type repeat struct {
	tr         *tracer
	setupOnly  bool
	created    time.Time
	createdCPU time.Duration // process CPU time at creation
	started    time.Time
	setup      time.Duration // everything before begin
	setupCPU   time.Duration // process CPU time of the set-up
	timed      time.Duration // begin to end
	alloc0     uint64
	cpu0       time.Duration // process CPU time at begin
	cpu        time.Duration // process CPU time of the timed region
	allocBytes uint64        // heap bytes allocated in the timed region
	ops        uint64
	failed     uint64
	digests    []digest
	values     map[string]float64 // stage timings and layer counters
}

type digest struct{ name, sum string }

func newRepeat(p params, tr *tracer) *repeat {
	return &repeat{tr: tr, setupOnly: p.setupOnly, created: time.Now(), createdCPU: processCPU(), values: map[string]float64{}}
}

// begin closes the set-up and opens the timed region. It reports false
// for a set-up-only repeat, which then ends.
func (r *repeat) begin() bool {
	r.setup = time.Since(r.created)
	r.setupCPU = processCPU() - r.createdCPU
	if r.setupOnly {
		return false
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc0 = ms.TotalAlloc
	r.tr.start()
	r.cpu0 = processCPU()
	r.started = time.Now()
	return true
}

// end closes the timed region.
func (r *repeat) end() {
	r.timed = time.Since(r.started)
	r.cpu = processCPU() - r.cpu0
	r.counter("runtime.cpus_busy", r.cpu.Seconds()/r.timed.Seconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - r.alloc0
	r.tr.stop(r)
}

// stage records the seconds since t under name.
func (r *repeat) stage(name string, t time.Time) { r.values[name] = time.Since(t).Seconds() }

// counter records a layer counter.
func (r *repeat) counter(name string, v float64) { r.values[name] = v }

// digest records the sha256 of one output.
func (r *repeat) digest(name string, b []byte) {
	r.digests = append(r.digests, digest{name, hexSum(b)})
}

// mismatch names the first output that differs from the reference's.
func (r *repeat) mismatch(ref *repeat) string {
	if !slices.Equal(r.digests, ref.digests) {
		for i, d := range r.digests {
			if i >= len(ref.digests) || d != ref.digests[i] {
				return fmt.Sprintf("%s sha256 %s", d.name, d.sum)
			}
		}
		return "missing outputs"
	}
	return ""
}

func (r *repeat) opsPerSec() float64 { return float64(r.ops) / r.timed.Seconds() }

// opsPerCPUSec is ops per second of the process's CPU time. Unlike wall
// time it leaves out the time the host's scheduler gives the CPUs to other
// tenants, which on a shared host moves wall throughput by 10-25 % between
// runs of the same code.
func (r *repeat) opsPerCPUSec() float64 { return float64(r.ops) / r.cpu.Seconds() }

func (r *repeat) allocPerOp() float64 { return float64(r.allocBytes) / float64(max(r.ops, 1)) }

func collect(rs []*repeat, f func(*repeat) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
