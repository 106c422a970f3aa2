// Command wormbench is the same-machine benchmark for wormsim. It drives
// one workload through the repository's public entry points for a fixed
// number of seconds, checks every op's output against recorded digests,
// and prints one JSON result line last on stdout: end-to-end metrics
// with -trace 0, per-layer metrics with -trace 1.
//
// Run it through run.py, which builds this module from the checkout and
// keeps every build and trace file under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metric is one named number with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupOnce times one set-up, prints its seconds and exits; the
	// benchmark runs itself with it to time cold set-ups.
	setupOnce bool
	procs     int
	data      string // directory of recorded digests
	out       string // directory for trace and profile files
	goTool    string // go command, for `go tool pprof`
}

func main() {
	var cfg config
	var trace int
	var record string
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&cfg.procs, "procs", 1, "simulation worker count per op (outputs are identical at any value)")
	flag.StringVar(&cfg.data, "data", "wormbench/digests", "directory of recorded output digests")
	flag.StringVar(&cfg.out, "out", ".bench_build/wormbench", "directory for trace spans and profiles")
	flag.StringVar(&cfg.goTool, "go", "go", "go command used for `go tool pprof`")
	flag.StringVar(&record, "record", "", "write the digests of every input of the named workload to -data and exit")
	flag.BoolVar(&cfg.setupOnce, "setup-once", false, "time one set-up of the workload, print its seconds and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if record != "" {
		if err := recordDigests(record, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
	if res == nil { // -setup-once has printed its seconds
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	digests, err := loadDigests(filepath.Join(cfg.data, cfg.workload+".txt"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, digests: digests}
	if cfg.setupOnce {
		sec, err := b.setupOnce()
		if err != nil {
			return nil, err
		}
		fmt.Println(sec)
		return nil, nil
	}
	if cfg.trace {
		b.spans = newSpanLog(w.traceEvery)
		return b.traced()
	}
	return b.untraced()
}

// bench is one benchmark process: one workload, one seed.
type bench struct {
	cfg     config
	w       workload
	digests map[string]string
	spans   *spanLog // nil when untraced
}

// session is a set-up workload, ready for timed ops.
type session interface {
	// op runs op number i and returns its sample; an error is a failed op.
	op(ctx context.Context, i int) (sample, error)
	// finish runs after the timed loop with its samples; the service
	// session cross-checks its counters there. It returns the number of
	// failed checks and report lines.
	finish(samples []sample) (failed int, report []string)
	close()
}

// sample is one completed op as the client saw it. The service
// workload keeps about a million, so it is kept small.
type sample struct {
	sec   float32 // host seconds
	class uint8   // algorithm index, or hitClass/missClass for service requests
	win   uint16  // the measurement window the op completed in
}

// workload is one benchmark input family.
type workload struct {
	// round is the op count after which every input class has been
	// sampled equally; timed loops end on a round boundary.
	round int
	// perClass computes op_p50_ms and op_tail_ms per class, as opTimes
	// describes. The simulation workloads set it: their four algorithms
	// differ in cost by up to 4x, and pooled quantiles would jump
	// between them.
	perClass bool
	// windows splits the measured seconds into equal windows; rates
	// and medians are the median over windows, so a transient stall
	// of the host moves one window, not the result. Only workloads
	// with thousands of ops per window use more than one.
	windows int
	// traceEvery samples the traced ops: op i records spans when i is a
	// multiple of it.
	traceEvery int
	// setup builds a session: the set-up a user pays before the first op.
	setup func(b *bench) (session, error)
	// layers returns the inputs the per-layer probes use.
	layers func(b *bench) layerInputs
	// universe returns the number of inputs the workload draws from and
	// a function computing input i's digest key and digest, for -record.
	universe func() (int, func(i int) (key, digest string, err error))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// setupRounds is how many cold set-ups a run times; setup_s is their
// median.
const setupRounds = 9

// setupSessions times setupRounds set-ups, each the first in its
// process, so process-wide state such as the plan cache and the worm
// pool starts empty every time: setupRounds-1 in child processes of
// this binary, one after the other, and last this process's own, whose
// session it returns.
func (b *bench) setupSessions() (session, float64, error) {
	times := make([]float64, 0, setupRounds)
	for i := 1; i < setupRounds; i++ {
		sec, err := b.childSetup()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, sec)
	}
	t0 := time.Now()
	s, err := b.w.setup(b)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	times = append(times, time.Since(t0).Seconds())
	return s, median(times), nil
}

// setupOnce times one set-up and closes its session.
func (b *bench) setupOnce() (float64, error) {
	t0 := time.Now()
	s, err := b.w.setup(b)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	sec := time.Since(t0).Seconds()
	s.close()
	return sec, nil
}

// childSetup runs this binary with -setup-once, waits for it to exit
// and returns the set-up seconds it printed.
func (b *bench) childSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-once", "-workload", b.cfg.workload,
		"-seed", fmt.Sprint(b.cfg.seed), "-seconds", fmt.Sprint(b.cfg.seconds),
		"-procs", fmt.Sprint(b.cfg.procs), "-data", b.cfg.data, "-out", b.cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up: %w", err)
	}
	var sec float64
	if _, err := fmt.Sscan(string(out), &sec); err != nil {
		return 0, fmt.Errorf("cold set-up printed %q: %w", out, err)
	}
	return sec, nil
}

// loopStats is what one timed op loop measured.
type loopStats struct {
	samples   []sample
	windows   int
	winSec    float64 // window length; the last one also holds the final round
	attempted int
	failed    int
	errs      []string
	elapsed   float64
	allocMB   float64 // TotalAlloc delta, MB
	memMB     float64 // median memory held from the OS, sampled every memEvery
	gcCycles  uint32
	gcPauseMS float64
}

// loop runs ops from index first on, one at a time (a closed loop
// with one client), until seconds have elapsed and the op count is a
// whole number of rounds, so every input class is sampled equally.
func (b *bench) loop(s session, first int, seconds float64) loopStats {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	st := loopStats{windows: b.w.windows, winSec: seconds / float64(b.w.windows)}
	stopMem := sampleMem(&st.memMB)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := first; (i-first)%b.w.round != 0 || time.Now().Before(deadline); i++ {
		st.attempted++
		smp, err := s.op(ctx, i)
		if err != nil {
			st.failed++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, fmt.Sprintf("op %d: %v", i, err))
			}
			continue
		}
		smp.win = uint16(min(int(time.Since(start).Seconds()/st.winSec), st.windows-1))
		st.samples = append(st.samples, smp)
	}
	st.elapsed = time.Since(start).Seconds()
	stopMem()
	runtime.ReadMemStats(&ms1)
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	st.gcCycles = ms1.NumGC - ms0.NumGC
	st.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return st
}

// rate is the median over windows of ops completed per second.
func (st *loopStats) rate() float64 {
	counts := make([]float64, st.windows)
	for _, s := range st.samples {
		counts[s.win]++
	}
	for w := range counts {
		d := st.winSec
		if w == st.windows-1 {
			d = st.elapsed - float64(st.windows-1)*st.winSec
		}
		counts[w] /= d
	}
	return median(counts)
}

func (b *bench) untraced() (*result, error) {
	s, setup, err := b.setupSessions()
	if err != nil {
		return nil, err
	}
	defer s.close()
	st := b.loop(s, 0, b.cfg.seconds)
	checkFailed, report := s.finish(st.samples)
	failed := st.failed + checkFailed
	if st.windows > 1 {
		report = append(report, fmt.Sprintf("ops_per_s and the p50s are medians over %d windows of %.3gs", st.windows, st.winSec))
	}

	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("setup_s", setup, "s")
	add("ops_per_s", st.rate(), "1/s")
	p50, tail, q, classes := opTimes(st.samples, b.w.perClass)
	add("op_p50_ms", p50*1e3, "ms")
	add("op_tail_ms", tail*1e3, "ms")
	alloc := st.allocMB / float64(max(st.attempted, 1))
	if ss, ok := s.(*serviceSession); ok {
		alloc = ss.allocPerOp(st.allocMB, st.attempted)
	}
	add("alloc_mb_per_op", alloc, "MB")
	add("mem_mb", st.memMB, "MB")

	fmt.Printf("workload %s  seed %d  procs %d  measured %.2fs  ops %d  failed %d\n",
		b.cfg.workload, b.cfg.seed, b.cfg.procs, st.elapsed, st.attempted, failed)
	for _, e := range st.errs {
		fmt.Println("  failed", e)
	}
	for _, r := range report {
		fmt.Println(" ", r)
	}
	if b.w.perClass {
		fmt.Printf("  op_p50_ms is the mean of the per-algorithm medians; op_tail_ms is it times the p%.4g of op time over its algorithm's median: %s\n", 100*q, classes)
	} else {
		fmt.Printf("  op_tail_ms is p%.4g of %d samples\n", 100*q, len(st.samples))
	}
	fmt.Printf("  %-16s %.6g (%d of %d)\n", "failed_share", float64(failed)/float64(max(st.attempted, 1)), failed, st.attempted)
	fmt.Printf("  %-16s %.6g MB (VmHWM)\n", "peak_rss_mb", rssOf("VmHWM:"))
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-16s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return &result{Correct: failed == 0, Attempted: st.attempted, Failed: failed, Metrics: m}, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// memEvery is the memory sampling period of a timed loop.
const memEvery = 50 * time.Millisecond

// memMetrics are the runtime/metrics samples heldMB reads.
var memMetrics = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// heldMB returns the memory the Go runtime has mapped from the OS and
// not released back, in MB. It follows VmRSS but leaves out the pages
// the runtime released with MADV_FREE, which stay in VmRSS until the
// kernel takes them, at a time that depends on the rest of the machine.
func heldMB() float64 {
	metrics.Read(memMetrics)
	return float64(memMetrics[0].Value.Uint64()-memMetrics[1].Value.Uint64()) / (1 << 20)
}

// sampleMem samples heldMB every memEvery until the returned stop
// function is called; stop stores the median sample in *out. The
// median is steadier than the high-water mark, which depends on where
// garbage collections fall.
func sampleMem(out *float64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		samples := []float64{heldMB()}
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				*out = median(samples)
				return
			case <-tick.C:
				samples = append(samples, heldMB())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// rssOf reads one resident-set line of /proc/self/status, in MB.
func rssOf(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// traced is the run that reports per-layer metrics. It times half the
// seconds untraced and half with spans and a CPU profile on, continuing
// the same op sequence, then runs the layer probes.
func (b *bench) traced() (*result, error) {
	s, err := b.w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	half := b.cfg.seconds / 2
	plain := b.loop(s, 0, half)

	base := fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed)
	profPath := filepath.Join(b.cfg.out, base+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	b.spans.on.Store(true)
	traced := b.loop(s, plain.attempted, half)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	all := append(append([]sample(nil), plain.samples...), traced.samples...)
	checkFailed, report := s.finish(all)

	layers := b.runLayers(b.w.layers(b), b.spans.forOp(-1))
	b.spans.on.Store(false)
	if ss, ok := s.(*serviceSession); ok {
		layers.serviceCounters(ss.lb)
	}
	m := layers.metrics
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ops := float64(max(plain.attempted+traced.attempted, 1))
	add("gc.cycles_per_op", float64(plain.gcCycles+traced.gcCycles)/ops, "count")
	add("gc.pause_ms_per_op", (plain.gcPauseMS+traced.gcPauseMS)/ops, "ms")
	tracedRate, plainRate := traced.rate(), plain.rate()
	add("trace.ops_per_s", tracedRate, "1/s")
	add("trace.untraced_ops_per_s", plainRate, "1/s")
	add("trace.overhead", plainRate/tracedRate, "ratio")

	shares, err := foldProfile(b.cfg.goTool, profPath)
	if err != nil {
		layers.fail("cpu profile: %v", err)
	}
	for _, mod := range cpuGroups() {
		add("cpu."+mod, shares[mod], "share")
	}

	spanLines, err := b.spans.write(filepath.Join(b.cfg.out, base+".spans.json"))
	if err != nil {
		layers.fail("spans: %v", err)
	}

	failed := plain.failed + traced.failed + checkFailed + len(layers.errs)
	fmt.Printf("workload %s  seed %d  procs %d  traced run: %d + %d ops in %.2fs + %.2fs, failed %d\n",
		b.cfg.workload, b.cfg.seed, b.cfg.procs, plain.attempted, traced.attempted, plain.elapsed, traced.elapsed, failed)
	for _, e := range append(append(plain.errs, traced.errs...), layers.errs...) {
		fmt.Println("  failed", e)
	}
	for _, line := range append(report, spanLines...) {
		fmt.Println(" ", line)
	}
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-28s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}
