package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// op share Op; Parent is the enclosing span's ID (0 for an op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run, and spans are recorded only while on is set.
type spanLog struct {
	t0    time.Time
	every int // ops whose index is a multiple of every are traced
	on    atomic.Bool
	mu    sync.Mutex
	next  int
	spans []span
}

func newSpanLog(every int) *spanLog { return &spanLog{t0: time.Now(), every: every} }

// forOp returns the tracer for op i's spans, nil when not recording
// or when op i is not among the sampled ones.
func (l *spanLog) forOp(op int) *opTracer {
	if l == nil || !l.on.Load() || op%l.every != 0 {
		return nil
	}
	return &opTracer{log: l, op: op}
}

// opTracer records the nested spans of one op on one goroutine.
type opTracer struct {
	log   *spanLog
	op    int
	stack []int
}

// begin opens a span and returns the function that closes it.
func (t *opTracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	l := t.log
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	start := time.Since(l.t0).Nanoseconds()
	return func() {
		end := time.Since(l.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
		l.mu.Lock()
		l.spans = append(l.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: start, End: end})
		l.mu.Unlock()
	}
}

// header carries the op and current span to the server side.
func (t *opTracer) header() http.Header {
	return http.Header{"X-Wormbench-Span": {fmt.Sprintf("%d/%d", t.op, t.stack[len(t.stack)-1])}}
}

// serverHandler wraps the service handler so that a request carrying a
// span header gets a server-side child span.
func (l *spanLog) serverHandler(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int
		if _, err := fmt.Sscanf(r.Header.Get("X-Wormbench-Span"), "%d/%d", &op, &parent); err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t := &opTracer{log: l, op: op, stack: []int{parent}}
		defer t.begin("service.Handler")()
		h.ServeHTTP(w, r)
	})
}

// write stores the spans as JSON and returns per-name totals and self
// times (a span's duration minus its direct children's): per traced op
// for the ops' spans, and in total for the layer probes' (op -1).
func (l *spanLog) write(path string) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	child := map[int]int64{}
	ops := map[int]bool{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
		if s.Op >= 0 {
			ops[s.Op] = true
		}
	}
	type agg struct{ total, self int64 }
	opAgg, probeAgg := map[string]*agg{}, map[string]*agg{}
	for _, s := range l.spans {
		m := opAgg
		if s.Op < 0 {
			m = probeAgg
		}
		a := m[s.Name]
		if a == nil {
			a = &agg{}
			m[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - child[s.ID]
	}
	lines := []string{fmt.Sprintf("%d spans written to %s", len(l.spans), path)}
	for _, part := range []struct {
		title string
		m     map[string]*agg
		per   float64
	}{
		{fmt.Sprintf("op spans of %d traced ops, ms per op (total / self):", len(ops)), opAgg, float64(max(len(ops), 1))},
		{"layer probe spans, ms (total / self):", probeAgg, 1},
	} {
		lines = append(lines, part.title)
		names := make([]string, 0, len(part.m))
		for n := range part.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a := part.m[n]
			lines = append(lines, fmt.Sprintf("  %-26s %10.4f / %10.4f", n, float64(a.total)/1e6/part.per, float64(a.self)/1e6/part.per))
		}
	}
	return lines, nil
}

// cpuModules are the layers flat CPU samples are folded into, besides
// "runtime" (package runtime), "stdlib" (the rest of the standard
// library, such as net/http) and "other" (the benchmark itself).
var cpuModules = []string{
	"sim", "network", "routing", "topology", "broadcast", "metrics", "traffic",
	"stats", "scenario", "runner", "export", "service", "fault", "cdg", "core",
}

// foldProfile runs the toolchain's offline `go tool pprof -top` on a CPU
// profile and returns each module's share of flat samples. No node is
// dropped, so the rows add up to the profile's total.
func foldProfile(goTool, profile string) (map[string]float64, error) {
	cmd := exec.Command(goTool, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		v, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("go tool pprof line %q: %w", sc.Text(), err)
		}
		flat[moduleOf(strings.Join(fields[5:], " "))] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	if strings.Contains(out.String(), "Dropped") {
		return nil, fmt.Errorf("go tool pprof dropped nodes from %s", profile)
	}
	shares := map[string]float64{}
	for _, m := range cpuGroups() {
		shares[m] = flat[m] / total
	}
	return shares, nil
}

func cpuGroups() []string {
	return append(append([]string(nil), cpuModules...), "runtime", "stdlib", "other")
}

// moduleOf maps a function name to its repro/internal module, or to
// "runtime" (including the runtime's assembly helpers, whose names have
// no package), "other" (the benchmark) or "stdlib": the repository
// imports nothing outside the standard library.
func moduleOf(fn string) string {
	// A standard-library generic instantiated over a module's type, such
	// as the calendar's slices.pdqsortCmpFunc[...sim.due...], is that
	// module's work.
	if open := strings.IndexByte(fn, '['); open > 0 && !strings.HasPrefix(fn, "repro/") {
		if i := strings.Index(fn[open:], "repro/internal/"); i >= 0 {
			fn = fn[open+i:]
		}
	}
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(fn, "repro/internal/"), ".")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || !strings.ContainsAny(fn, "./"):
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/"):
		return "other"
	}
	return "stdlib"
}

// parseDuration reads a pprof flat column such as "1.20s" or "30ms".
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"min", 60}, {"h", 3600}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}
