package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// algorithms are the paper's four, in the order each round runs them.
var algorithms = []string{"RD", "EDN", "DB", "AB"}

// workloads are the benchmark's input families; README.md records why
// each one was chosen.
var workloads = map[string]workload{
	"saturation": simWorkload("saturation", 64, func(algo string, seed uint64, procs int) (scenario.Spec, error) {
		return scenario.Build("saturation", scenario.WithAlgorithms(algo), scenario.WithSeed(seed), scenario.WithProcs(procs))
	}),
	"mixed": simWorkload("mixed", 32, func(algo string, seed uint64, procs int) (scenario.Spec, error) {
		return scenario.Build("fig3", scenario.WithAlgorithms(algo), scenario.WithSeed(seed), scenario.WithProcs(procs))
	}),
	"scale64k": simWorkload("scale64k", 32, func(algo string, seed uint64, procs int) (scenario.Spec, error) {
		return scenario.Build("fig1", scenario.WithSizes([]int{64, 64, 16}), scenario.WithReps(scale64kReps),
			scenario.WithAlgorithms(algo), scenario.WithSeed(seed), scenario.WithProcs(procs))
	}),
	"service": serviceWorkload(),
}

// scale64kReps is the broadcasts per scale64k op: each one allocates
// about 70 MB on the 2^16-node mesh.
const scale64kReps = 4

// specFunc builds one simulation op's spec.
type specFunc func(algo string, seed uint64, procs int) (scenario.Spec, error)

// simWorkload is a workload whose op is one scenario.RunTo of one
// algorithm at one scenario seed, rendered through the CSV sink. Round
// r runs the four algorithms at scenario seed seedOf(r); the scenario
// seeds are a seed-determined permutation of 1..pool, the universe
// whose digests are recorded.
func simWorkload(name string, pool int, build specFunc) workload {
	return workload{
		round:      len(algorithms),
		perClass:   true,
		windows:    1,
		traceEvery: 1,
		setup: func(b *bench) (session, error) {
			s := &simSession{b: b, build: build, perm: sim.Substream(b.cfg.seed, 0x5eed).Perm(pool)}
			// Set-up is what a user pays before the first result: the
			// registry lookup and one warm-up op, which builds the mesh
			// and fills the plan cache. Its input, the cheapest algorithm
			// at scenario seed 1, is the same for every workload seed, so
			// setup_s does not vary with the seed.
			if _, err := s.run(context.Background(), algorithms[len(algorithms)-1], 1, -1); err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
			return s, nil
		},
		layers: func(b *bench) layerInputs { return simLayerInputs(name, pool, build, b) },
		universe: func() (int, func(int) (string, string, error)) {
			return pool * len(algorithms), func(i int) (string, string, error) {
				algo, seed := algorithms[i%len(algorithms)], uint64(i/len(algorithms)+1)
				spec, err := build(algo, seed, 1)
				if err != nil {
					return "", "", err
				}
				body, err := renderOp(context.Background(), spec, nil)
				return simKey(algo, seed), digest(body), err
			}
		},
	}
}

func simKey(algo string, seed uint64) string { return algo + "/" + strconv.FormatUint(seed, 10) }

// buildMesh builds the spec's (first) mesh the way the scenario run loop
// does: implicit adjacency where the store resolves to lazy.
func buildMesh(spec scenario.Spec) *topology.Mesh {
	dims := spec.Dims
	if len(spec.Sizes) > 0 {
		dims = spec.Sizes[0]
	}
	n := 1
	for _, k := range dims {
		n *= k
	}
	if n >= 1<<16 {
		return topology.NewMeshImplicit(dims...)
	}
	return topology.NewMesh(dims...)
}

type simSession struct {
	b     *bench
	build specFunc
	perm  []int
}

func (s *simSession) seedOf(round int) uint64 { return uint64(s.perm[round%len(s.perm)] + 1) }

// opInput returns op i's algorithm and scenario seed.
func (s *simSession) opInput(i int) (string, uint64) {
	return algorithms[i%len(algorithms)], s.seedOf(i / len(algorithms))
}

func (s *simSession) op(ctx context.Context, i int) (sample, error) {
	algo, seed := s.opInput(i)
	smp, err := s.run(ctx, algo, seed, i)
	smp.class = uint8(i % len(algorithms))
	return smp, err
}

// run executes one op, numbered i for tracing, and checks its output.
func (s *simSession) run(ctx context.Context, algo string, seed uint64, i int) (sample, error) {
	spec, err := s.build(algo, seed, s.b.cfg.procs)
	if err != nil {
		return sample{}, err
	}
	tr := s.b.spans.forOp(i)
	defer tr.begin("op")()
	t0 := time.Now()
	body, err := renderOp(ctx, spec, tr)
	sec := time.Since(t0).Seconds()
	if err != nil {
		return sample{}, err
	}
	if err := s.b.check(simKey(algo, seed), body); err != nil {
		return sample{}, err
	}
	return sample{sec: float32(sec)}, nil
}

func (s *simSession) finish([]sample) (int, []string) { return 0, nil }
func (s *simSession) close()                          {}

// renderOp runs one op: the spec through scenario.RunTo into the CSV
// sink. With tracing on, spans cover the RunTo call and the sink.
func renderOp(ctx context.Context, spec scenario.Spec, tr *opTracer) ([]byte, error) {
	var buf bytes.Buffer
	sink, err := export.NewSink("csv", &buf)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		end := tr.begin("scenario.RunTo")
		defer end()
		sink = tracedSink{sink, tr}
	}
	if _, err := scenario.RunTo(ctx, spec, sink); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tracedSink records a span around the export layer's Emit.
type tracedSink struct {
	scenario.Sink
	tr *opTracer
}

func (t tracedSink) Emit(r *scenario.Result) error {
	defer t.tr.begin("export.Emit")()
	return t.Sink.Emit(r)
}

// digest is the recorded form of an op's output: the first 64 bits of
// its SHA-256, in hex.
func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// check compares an op's output with its recorded digest.
func (b *bench) check(key string, body []byte) error {
	want, ok := b.digests[key]
	if !ok {
		return fmt.Errorf("no recorded digest for %s", key)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("output digest %s for %s, recorded %s", got, key, want)
	}
	return nil
}

// loadDigests reads a "key digest" per line file.
func loadDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[key] = strings.TrimSpace(d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no digests", path)
	}
	return out, nil
}

// recordDigests computes the digest of every input in the workload's
// universe and writes them to <data>/<workload>.txt.
func recordDigests(name string, cfg config) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	n, digestOf := w.universe()
	var out strings.Builder
	fmt.Fprintf(&out, "# %s: output digest (first 64 bits of SHA-256, hex) per input; written by -record\n", name)
	for i := 0; i < n; i++ {
		key, d, err := digestOf(i)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		fmt.Fprintf(&out, "%s %s\n", key, d)
		if (i+1)%64 == 0 {
			fmt.Fprintf(os.Stderr, "%s: %d/%d\n", name, i+1, n)
		}
	}
	if err := os.MkdirAll(cfg.data, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.data, name+".txt"), []byte(out.String()), 0o644)
}

// quantile returns the q-quantile of xs, interpolating linearly
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBeyond is how many samples the reported tail quantile must leave
// above it, and tailMax caps it. With hundreds of thousands of service
// requests the (n-10)-th sample is a lone outlier, not a tail. The cap
// also keeps the service tail on the hit path: its misses, at most 50 a
// second, are under 1% of requests at any rate above 5,000 a second,
// and a higher quantile would land on a miss or a hit as that share
// moved with the program's speed.
const (
	tailBeyond = 10
	tailMax    = 0.99
)

// tailQuantile is the highest quantile, up to tailMax, that leaves at
// least tailBeyond of n samples above it.
func tailQuantile(n int) float64 {
	return max(min(tailMax, 1-float64(tailBeyond)/float64(n)), 0)
}

func secs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.sec)
	}
	return out
}

// windowMedian returns the median over measurement windows of the
// median time of the samples keep selects.
func windowMedian(samples []sample, keep func(sample) bool) (float64, int) {
	byWin := map[uint16][]float64{}
	n := 0
	for _, s := range samples {
		if keep(s) {
			byWin[s.win] = append(byWin[s.win], float64(s.sec))
			n++
		}
	}
	meds := make([]float64, 0, len(byWin))
	for _, xs := range byWin {
		meds = append(meds, median(xs))
	}
	return median(meds), n
}

// opTimes returns op_p50 and op_tail in seconds and the tail quantile
// q, which leaves tailBeyond of all samples above it, plus a printable
// per-class breakdown with perClass.
//
// With perClass, op_p50 is the mean of the per-algorithm medians, and
// op_tail is op_p50 times the q-quantile of each op's time over its own
// algorithm's median. The algorithms differ in cost by up to 4x: a
// pooled quantile would sit on the boundary between two algorithms'
// groups whenever the op count puts it there, and jump as that count
// changes.
func opTimes(samples []sample, perClass bool) (p50, tail, q float64, breakdown string) {
	q = tailQuantile(len(samples))
	if !perClass {
		p50, _ = windowMedian(samples, func(sample) bool { return true })
		return p50, quantile(secs(samples), q), q, ""
	}
	byClass := make([][]float64, len(algorithms))
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], float64(s.sec))
	}
	meds := make([]float64, len(algorithms))
	var parts []string
	for c, name := range algorithms {
		meds[c] = median(byClass[c])
		p50 += meds[c] / float64(len(algorithms))
		parts = append(parts, fmt.Sprintf("%s %.4g ms (n=%d)", name, meds[c]*1e3, len(byClass[c])))
	}
	ratios := make([]float64, len(samples))
	for i, s := range samples {
		ratios[i] = float64(s.sec) / meds[s.class]
	}
	ratio := quantile(ratios, q)
	parts = append(parts, fmt.Sprintf("tail ratio %.4g", ratio))
	return p50, p50 * ratio, q, strings.Join(parts, ", ")
}
