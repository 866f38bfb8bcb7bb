// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup time, op
// latency p50/p95 and ops per CPU second, all at a nominal host speed,
// share of solves left undecided, peak RSS); with -trace 1 they are the per-layer split measured by a
// separate traced window plus replays of each query through the
// layers' public entry points.
//
// Workloads (see README.md for the rationale of each):
//
//	raw         generated MBA identities checked unsimplified (paper §3)
//	simplified  the same identities, MBA-Solver first (paper §6.1)
//	service     closed-loop /v1/batch traffic: client -> router -> node
//
// Every op is checked against an answer known independently of the
// code under test; a mismatch counts as a failed op and makes the run
// incorrect. The line before the result carries the run's
// deterministic counts (conflicts, decided verdicts, simplifier and
// cache counters), which repeat exactly for a given seed; the line
// before that, the host's measured speed and the timings before they
// were scaled to the nominal speed (host.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: a setup is timed from the start of the
// process that does it. startSteal and startTotal are the guest's CPU
// ticks then, to take the time stolen during the setup out of it.
var (
	processStart           = time.Now()
	startSteal, startTotal = cpuTicks()
)

// segments is how many equal parts the measured window is cut into.
// Each must hold at least 200 ops, so that its p95 has 10 samples
// beyond it. setup_s is the median of 1+segments/2 setups: the
// measured process's own and, after every second segment, one in a
// fresh process of this program that sets up, reports and exits.
// Spreading the samples over the run keeps a burst of contention on a
// shared machine from moving all of them at once.
const segments = 6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string
	small    bool // smoke-test input sizes (tests only)
}

// window is what one timed stretch of ops produced.
type window struct {
	lat    []time.Duration // per op, as the caller saw it
	failed int             // ops that contradicted their known answer
	cpu    time.Duration   // process CPU over the window
}

func (w window) opsPerCPU() float64 {
	if w.cpu <= 0 {
		return 0
	}
	return float64(len(w.lat)) / w.cpu.Seconds()
}

// instance is one set-up workload.
type instance interface {
	// run executes ops until the deadline has passed and the counted
	// pass (one deterministic prefix of ops) is complete, keeping each
	// op's output for verify. A non-nil tracer records spans.
	run(deadline time.Time, tr *tracer) window
	// verify applies the known-answer gate to every op output kept
	// since the last call and returns the number of failed ops. It runs
	// outside every timed window, so no workload's CPU or latency
	// figures include the benchmark's own checking.
	verify() int
	// counts returns the deterministic counts of the counted pass.
	counts() map[string]any
	// undecidedFrac is the share of the counted pass's solves left
	// undecided at their conflict budget.
	undecidedFrac() float64
	// passRSS is the peak RSS in MB when the counted pass completed,
	// so it reflects a fixed amount of work, not the run's speed.
	passRSS() float64
	// layers replays the counted pass through each layer's public
	// entry points and returns the per-layer metrics.
	layers(tr *tracer, traced window) map[string]float64
	close()
}

// workloads maps a workload name to its setup.
var workloads = map[string]func(cfg config) (instance, error){
	"raw":        setupLibrary(false),
	"simplified": setupLibrary(true),
	"service":    setupService,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "raw | simplified | service")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for stores and span dumps")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the setup time and exit (setup_s samples)")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	if *setupOnly {
		inst, d, err := setUp(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		scaled := scaleSetup(d, newRefKernel())
		inst.close()
		fmt.Printf("setup_s %.9f %.9f\n", scaled, d.Seconds())
		return
	}

	res, counts, host, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range []any{map[string]any{"host": host}, map[string]any{"counts": counts}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// setUp sets the workload up and returns the instance and the time
// from process start until it was ready for its first timed op.
func setUp(cfg config) (instance, time.Duration, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, 0, fmt.Errorf("unknown workload %q (want raw, simplified or service)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, 0, err
	}
	inst, err := setup(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return inst, time.Since(processStart), nil
}

// scaleSetup scales a setup time d, taken from process start, to the
// nominal host speed as the segments' timings are: the share of it the
// hypervisor stole is taken out, and the rest is multiplied by
// refNominal over the median of three host samples taken right after.
// It returns seconds.
func scaleSetup(d time.Duration, ref *refKernel) float64 {
	steal, total := cpuTicks()
	share := 0.0
	if total > startTotal {
		share = float64(steal-startSteal) / float64(total-startTotal)
	}
	walls := make([]time.Duration, 3)
	for i := range walls {
		walls[i] = ref.sample().wall
	}
	return d.Seconds() * (1 - share) * hostSpeed{wall: medianDur(walls)}.wallScale()
}

// setupSample runs this program with -setup-only in a fresh process and
// returns the scaled and the measured setup time it reports.
func setupSample(cfg config) (scaled, measured float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-workdir", cfg.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("setup sample: %w", err)
	}
	if _, err := fmt.Sscanf(string(out), "setup_s %g %g", &scaled, &measured); err != nil {
		return 0, 0, fmt.Errorf("setup sample: unexpected output %q: %w", out, err)
	}
	return scaled, measured, nil
}

// runBenchmark sets the workload up, measures it and assembles the
// result.
func runBenchmark(cfg config) (result, map[string]any, map[string]float64, error) {
	inst, d, err := setUp(cfg)
	if err != nil {
		return result{}, nil, nil, err
	}
	defer inst.close()
	ref := newRefKernel()

	if !cfg.trace {
		setups, rawSetups := []float64{scaleSetup(d, ref)}, []float64{d.Seconds()}
		// The window is measured as equal time segments and each timing
		// metric is the median of its per-segment values, so a burst of
		// contention on the shared machine that covers one segment does
		// not move the result. Each segment's timings are scaled to the
		// nominal host speed by the host samples taken during it (see
		// host.go); the unscaled figures go on the host line.
		var p50s, p95s, rates, rawP50s, rawP95s, rawRates, refWall, refCPU, steals []float64
		var attempted, failed int
		for i := 0; i < segments; i++ {
			win, host, steal := measureSegment(inst, ref, cfg.window/segments)
			p50, p95 := ms(quantile(win.lat, 0.50)), ms(quantile(win.lat, 0.95))
			// A sample is a median of short kernel runs, so it leaves out
			// the time the hypervisor stole; an op's wall time holds its
			// share of it, which is taken out before scaling. Stolen time
			// is not charged as the process's CPU time.
			p50s = append(p50s, p50*(1-steal)*host.wallScale())
			p95s = append(p95s, p95*(1-steal)*host.wallScale())
			steals = append(steals, steal)
			rates = append(rates, win.opsPerCPU()/host.cpuScale())
			rawP50s, rawP95s = append(rawP50s, p50), append(rawP95s, p95)
			rawRates = append(rawRates, win.opsPerCPU())
			refWall, refCPU = append(refWall, ms(host.wall)), append(refCPU, ms(host.cpu))
			attempted += len(win.lat)
			failed += win.failed
			if i%2 == 1 {
				s, raw, err := setupSample(cfg)
				if err != nil {
					return result{}, nil, nil, err
				}
				setups, rawSetups = append(setups, s), append(rawSetups, raw)
			}
		}
		res := result{
			Correct:   failed == 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics: map[string]metric{
				"setup_s":             {median(setups), "s"},
				"norm_latency_ms_p50": {median(p50s), "ms"},
				"norm_latency_ms_p95": {median(p95s), "ms"},
				"norm_ops_per_cpu_s":  {median(rates), "1/s"},
				"undecided_frac":      {inst.undecidedFrac(), "frac"},
				"peak_rss_mb":         {inst.passRSS(), "MB"},
			},
		}
		host := map[string]float64{
			"ref_wall_ms":    median(refWall),
			"ref_cpu_ms":     median(refCPU),
			"latency_ms_p50": median(rawP50s),
			"latency_ms_p95": median(rawP95s),
			"ops_per_cpu_s":  median(rawRates),
			"steal_frac":     median(steals),
			"setup_s":        median(rawSetups),
		}
		return res, inst.counts(), host, nil
	}

	// Traced run: an untraced half and a traced half over the same op
	// stream, so the tracing overhead is the difference of the two.
	before := ref.sample()
	plain := measure(inst, cfg.window/2, nil)
	tr := newTracer()
	traced := measure(inst, cfg.window/2, tr)
	layers := inst.layers(tr, traced)
	host := before.mean(ref.sample())
	if u := plain.opsPerCPU(); u > 0 {
		layers["trace.overhead_frac"] = 1 - traced.opsPerCPU()/u
	}
	if err := tr.dump(cfg.workdir, cfg.workload, cfg.seed); err != nil {
		return result{}, nil, nil, err
	}
	met := make(map[string]metric, len(layers))
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return result{}, nil, nil, fmt.Errorf("workload %s did not report per-layer metric %s", cfg.workload, m.name)
		}
		met[m.name] = metric{v, m.unit}
	}
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: len(plain.lat) + len(traced.lat),
		Failed:    failed,
		Metrics:   met,
	}, inst.counts(), map[string]float64{"ref_wall_ms": ms(host.wall), "ref_cpu_ms": ms(host.cpu)}, nil
}

// measure runs one timed window, charges it its process CPU and then,
// outside the window, checks its ops.
func measure(inst instance, d time.Duration, tr *tracer) window {
	cpu0 := cpuTime()
	win := inst.run(time.Now().Add(d), tr)
	win.cpu = cpuTime() - cpu0
	win.failed = inst.verify()
	return win
}

// slice is how long a segment runs ops between two host samples.
const slice = 500 * time.Millisecond

// measureSegment runs one timed segment as slices of ops with a host
// sample before the first and after each, all taken while no op is in
// flight. It charges the segment the process CPU of its slices only,
// checks its ops afterwards and returns it with the median host speed
// of its samples and the share of the slices' time the hypervisor
// stole from the guest.
func measureSegment(inst instance, ref *refKernel, d time.Duration) (window, hostSpeed, float64) {
	end := time.Now().Add(d)
	samples := []hostSpeed{ref.sample()}
	var w window
	var stolen, total uint64
	for len(samples) == 1 || time.Now().Before(end) {
		stop := time.Now().Add(slice)
		if stop.After(end) {
			stop = end
		}
		steal0, total0 := cpuTicks()
		cpu0 := cpuTime()
		sw := inst.run(stop, nil)
		w.cpu += cpuTime() - cpu0
		steal1, total1 := cpuTicks()
		stolen, total = stolen+steal1-steal0, total+total1-total0
		w.lat = append(w.lat, sw.lat...)
		samples = append(samples, ref.sample())
	}
	w.failed = inst.verify()
	walls := make([]time.Duration, len(samples))
	cpus := make([]time.Duration, len(samples))
	for i, h := range samples {
		walls[i], cpus[i] = h.wall, h.cpu
	}
	stealShare := 0.0
	if total > 0 {
		stealShare = float64(stolen) / float64(total)
	}
	return w, hostSpeed{medianDur(walls), medianDur(cpus)}, stealShare
}

// perLayer lists the traced run's metrics in report order. Layers a
// workload never calls report 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"core.simplify_ms", "ms"},
	{"core.table_hit_frac", "frac"},
	{"core.signatures_per_op", "count"},
	{"core.alternation_out", "count"},
	{"bv.rewrite_ms", "ms"},
	{"bitslice.screen_ms", "ms"},
	{"bitslice.sample_ms", "ms"},
	{"bitblast.blast_ms", "ms"},
	{"bitblast.vars", "count"},
	{"bitblast.clauses", "count"},
	{"sat.solve_ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.props_per_ms", "1/ms"},
	{"smt.check_ms", "ms"},
	{"smt.unattributed_ms", "ms"},
	{"smt.screened_frac", "frac"},
	{"smt.rewritten_frac", "frac"},
	{"smt.sat_frac", "frac"},
	{"smt.decided_frac", "frac"},
	{"parser.parse_ms", "ms"},
	{"service.node_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.dedup_frac", "frac"},
	{"service.rejected", "count"},
	{"store.hit_frac", "frac"},
	{"store.puts", "count"},
	{"store.dropped", "count"},
	{"store.syncs", "count"},
	{"cluster.forward_ms", "ms"},
	{"cluster.router_self_ms", "ms"},
	{"client.self_ms", "ms"},
	{"trace.fidelity", "frac"},
	{"trace.overhead_frac", "frac"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTicks returns the guest's steal and total CPU time so far, in
// clock ticks summed over its CPUs, from the first line of /proc/stat;
// zeros where that cannot be read, which leaves latencies unadjusted.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user+system CPU time so far, which includes
// the garbage collector and every server goroutine in the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
