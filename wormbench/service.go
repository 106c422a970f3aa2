package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// The service workload's request universe: entry u asks for the
// "saturation" scenario on a 4×4×4 mesh at scenario seed u/3+1 in
// format u%3. Every entry's response digest is recorded.
//
// The hit/miss mix is chosen, not measured from real traffic: a small
// hit set keeps the hit path in the result cache, and misses come at a
// fixed rate in time, not a share of requests, so the number of misses
// a run uses depends only on its length, never on the program's speed.
const (
	serviceUniverse = 6144
	serviceHitSet   = 63 // entries pre-filled at set-up and repeated, a third per format
	// serviceMissEvery is the interval between misses: 50 a second.
	serviceMissEvery = 20 * time.Millisecond
	serviceReps      = 4
	serviceWorkers   = 2 // simulation workers of the server
	// serviceAllocMix is the miss share alloc_mb_per_op is weighted
	// with, about the share of 50 misses in a second of 25,000 requests.
	serviceAllocMix = 0.002
)

// serviceMaxSeconds is the longest run whose misses the universe holds.
const serviceMaxSeconds = float64(serviceUniverse-serviceHitSet-1) * float64(serviceMissEvery) / float64(time.Second)

var serviceMesh = []int{4, 4, 4}

// Sample classes of service requests.
const (
	hitClass = iota
	missClass
)

func serviceWorkload() workload {
	return workload{
		round: 1,
		// Requests come from the loop's single closed-loop client. With
		// two, a 2-vCPU VM ran the hit path in two modes (about 48k and
		// 68k requests/s) that switched every few seconds, and runs of
		// one seed spread by 17%.
		windows: 20,
		// At tens of thousands of requests a second, one request in 64
		// keeps the span log to a few tens of thousands of spans.
		traceEvery: 64,
		setup:      setupService,
		layers:     serviceLayerInputs,
		universe: func() (int, func(int) (string, string, error)) {
			srv := service.New(service.Config{Procs: 1})
			return serviceUniverse, func(u int) (string, string, error) {
				req := serviceRequest(u, 1)
				body, _, _, err := srv.Run(context.Background(), &req)
				return serviceKey(u), digest(body), err
			}
		},
	}
}

func serviceKey(u int) string {
	return export.Formats()[u%3] + "/" + strconv.Itoa(u/3+1)
}

// serviceRequest is universe entry u as a request.
func serviceRequest(u, procs int) service.RunRequest {
	seed := uint64(u/3 + 1)
	return service.RunRequest{
		Scenario: "saturation",
		Mesh:     serviceMesh,
		Reps:     serviceReps,
		Seed:     &seed,
		Procs:    procs,
		Format:   export.Formats()[u%3],
	}
}

// serviceSpec is the spec the server resolves entry u's request to.
func serviceSpec(u, procs int) (scenario.Spec, error) {
	return scenario.Build("saturation", scenario.WithMesh(serviceMesh...), scenario.WithReps(serviceReps),
		scenario.WithSeed(uint64(u/3+1)), scenario.WithProcs(procs))
}

// loopback is a service.Server behind an HTTP server on an in-memory
// listener, with its own client. The whole HTTP stack runs on both
// sides; only the kernel's TCP loopback is left out. On a shared 2-vCPU
// VM, requests over 127.0.0.1 slowed by up to 25% for minutes at a time
// while the same requests over the in-memory listener, run alternately,
// moved by half as much.
type loopback struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when Serve has returned
}

func startLoopback(handler func(http.Handler) http.Handler) *loopback {
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	srv := service.New(service.Config{Procs: serviceWorkers})
	var h http.Handler = srv.Handler()
	if handler != nil {
		h = handler(h)
	}
	l := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://wormbench",
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{DialContext: ln.dial}},
	}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l
}

// close stops the listener, waits for Serve to return and drains the
// server's admitted simulations.
func (l *loopback) close() {
	l.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.hs.Shutdown(ctx)
	<-l.done
	l.srv.Close()
}

// post sends one run request and reads the response body into buf,
// returning the cache class.
func (l *loopback) post(ctx context.Context, payload []byte, header http.Header, buf *bytes.Buffer) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	class := resp.Header.Get("X-Wormsim-Cache")
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return "shed", fmt.Errorf("429: %s", strings.TrimSpace(buf.String()))
	case resp.StatusCode != http.StatusOK:
		return class, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return class, nil
}

// scrape reads the server's /metrics counters and gauges.
func (l *loopback) scrape() (map[string]float64, error) {
	resp, err := l.client.Get(l.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// serviceSession is a closed loop of one client against one
// loopback server. A request is a miss (the next unused universe entry)
// when a miss is due: the k-th is due serviceMissEvery×k after the
// first timed request. Otherwise request i is a hit-set entry drawn
// from the workload seed and i. The misses' entries and their order
// come from the seed too.
type serviceSession struct {
	b   *bench
	lb  *loopback
	hit []int // hit-set universe entries
	new []int // the remaining entries, in the order misses use them
	// payloads holds the hit set's request bodies, marshalled at set-up.
	payloads map[int][]byte
	// body is the response buffer, reused so the client side adds little
	// garbage to what the server allocates.
	body bytes.Buffer

	start   time.Time      // when the first timed request was sent
	misses  int            // misses requested so far
	missMB  float64        // allocated during timed misses, MB
	classes map[string]int // responses by X-Wormsim-Cache class
}

func setupService(b *bench) (session, error) {
	// The timed loops of one process run b.cfg.seconds in all.
	if b.cfg.seconds > serviceMaxSeconds {
		return nil, fmt.Errorf("service runs at most %.1fs: the recorded universe holds %d misses, one every %v",
			serviceMaxSeconds, serviceUniverse-serviceHitSet, serviceMissEvery)
	}
	s := &serviceSession{b: b, classes: map[string]int{}, payloads: map[int][]byte{}}
	s.lb = startLoopback(b.spans.serverHandler)
	s.hit, s.new = splitUniverse(b.cfg.seed)
	// Fill the cache: each hit-set entry is requested once (a miss).
	for _, u := range s.hit {
		payload, err := json.Marshal(serviceRequest(u, b.cfg.procs))
		if err != nil {
			s.close()
			return nil, err
		}
		s.payloads[u] = payload
		if err := s.request(context.Background(), -1, u, "miss"); err != nil {
			s.close()
			return nil, fmt.Errorf("pre-fill %s: %w", serviceKey(u), err)
		}
	}
	return s, nil
}

// splitUniverse draws the hit set, the same number of entries of each
// format, from a seed-determined permutation of the universe; the rest
// are the misses, in permutation order.
func splitUniverse(seed uint64) (hit, miss []int) {
	perFormat := map[int]int{}
	for _, u := range sim.Substream(seed, 0x5e41).Perm(serviceUniverse) {
		if len(hit) < serviceHitSet && perFormat[u%3] < serviceHitSet/3 {
			perFormat[u%3]++
			hit = append(hit, u)
		} else {
			miss = append(miss, u)
		}
	}
	return hit, miss
}

// entry returns request i's universe entry and the cache class it must
// be answered with. At most one miss is sent per request, so a run of
// d seconds sends at most d/serviceMissEvery+1 misses.
func (s *serviceSession) entry(i int) (int, string, error) {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	if time.Since(s.start) < time.Duration(s.misses)*serviceMissEvery {
		return s.hit[sim.Substream(s.b.cfg.seed, uint64(i)).Intn(len(s.hit))], "hit", nil
	}
	if s.misses == len(s.new) {
		return 0, "", errors.New("service universe exhausted; record more entries")
	}
	s.misses++
	return s.new[s.misses-1], "miss", nil
}

func (s *serviceSession) op(ctx context.Context, i int) (sample, error) {
	u, want, err := s.entry(i)
	if err != nil {
		return sample{}, err
	}
	var alloc0 float64
	if want == "miss" {
		alloc0 = totalAllocMB()
	}
	t0 := time.Now()
	err = s.request(ctx, i, u, want)
	sec := time.Since(t0).Seconds()
	if want == "miss" {
		s.missMB += totalAllocMB() - alloc0
	}
	if err != nil {
		return sample{}, err
	}
	class := uint8(hitClass)
	if want == "miss" {
		class = missClass
	}
	return sample{class: class, sec: float32(sec)}, nil
}

// request sends universe entry u and checks the response's class and
// digest. Op -1 is set-up traffic.
func (s *serviceSession) request(ctx context.Context, i, u int, want string) error {
	payload, ok := s.payloads[u]
	if !ok {
		var err error
		if payload, err = json.Marshal(serviceRequest(u, s.b.cfg.procs)); err != nil {
			return err
		}
	}
	var header http.Header
	tr := s.b.spans.forOp(i)
	if tr != nil {
		defer tr.begin("op")()
		end := tr.begin("http.POST")
		defer end()
		header = tr.header()
	}
	class, err := s.lb.post(ctx, payload, header, &s.body)
	s.classes[class]++
	if err != nil {
		return err
	}
	if class != want && !(want == "miss" && class == "dedup") {
		return fmt.Errorf("%s answered as %q, want %q", serviceKey(u), class, want)
	}
	return s.b.check(serviceKey(u), s.body.Bytes())
}

// finish cross-checks the server's /metrics counters against the
// classes the clients saw in X-Wormsim-Cache headers, and reports the
// hit and miss latencies.
func (s *serviceSession) finish(samples []sample) (int, []string) {
	var hits, misses []float64
	for _, smp := range samples {
		if smp.class == hitClass {
			hits = append(hits, float64(smp.sec))
		} else {
			misses = append(misses, float64(smp.sec))
		}
	}
	var report []string
	hp50, _ := windowMedian(samples, func(s sample) bool { return s.class == hitClass })
	hq, mq := tailQuantile(len(hits)), tailQuantile(len(misses))
	report = append(report,
		fmt.Sprintf("%-16s %.6g us", "hit_p50_us", hp50*1e6),
		fmt.Sprintf("%-16s %.6g us (p%.4g of %d hits)", "hit_tail_us", quantile(hits, hq)*1e6, 100*hq, len(hits)),
		fmt.Sprintf("%-16s %.6g ms", "miss_p50_ms", median(misses)*1e3),
		fmt.Sprintf("%-16s %.6g ms (p%.4g of %d misses)", "miss_tail_ms", quantile(misses, mq)*1e3, 100*mq, len(misses)))

	failed, lines := s.crossCheck()
	return failed, append(report, lines...)
}

// crossCheck compares /metrics with the client-side classification.
// Each disagreeing counter counts as one failed op.
func (s *serviceSession) crossCheck() (int, []string) {
	m, err := s.lb.scrape()
	if err != nil {
		return 1, []string{"metrics scrape failed: " + err.Error()}
	}
	failed := 0
	var lines []string
	for _, c := range []struct{ class, counter string }{
		{"hit", "wormsimd_cache_hits_total"},
		{"miss", "wormsimd_misses_total"},
		{"dedup", "wormsimd_dedup_total"},
		{"shed", "wormsimd_rejected_total"},
	} {
		got, want := m[c.counter], float64(s.classes[c.class])
		status := "agrees"
		if got != want {
			failed++
			status = "DISAGREES"
		}
		lines = append(lines, fmt.Sprintf("/metrics %s %.0f, clients saw %.0f %s: %s", c.counter, got, want, c.class, status))
	}
	return failed, lines
}

// allocPerOp weighs the allocation per hit and per miss with a fixed
// miss share: misses come at a fixed rate in time, so their share of
// requests, and of a plain per-request average, moves with speed.
// Allocation during a miss is read around it; the rest is the hits'.
func (s *serviceSession) allocPerOp(totalMB float64, ops int) float64 {
	hits := ops - s.misses
	if s.misses == 0 || hits <= 0 {
		return totalMB / float64(max(ops, 1))
	}
	perHit := (totalMB - s.missMB) / float64(hits)
	perMiss := s.missMB / float64(s.misses)
	return (1-serviceAllocMix)*perHit + serviceAllocMix*perMiss
}

// totalAllocMB is the process's cumulative heap allocation, MB. It
// stops the world, so only misses read it.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

func (s *serviceSession) close() { s.lb.close() }

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// dial hands the server end to Accept and returns the client end.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	c, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// pipeAddr is the address of every pipeListener.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "wormbench" }
