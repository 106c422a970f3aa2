package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/service"
)

// smallReq is a fast registry request the tests hammer: fig1 collapsed
// to one tiny mesh, two replications.
func smallReq(seed uint64, format string) *service.RunRequest {
	return &service.RunRequest{
		Scenario: "fig1",
		Mesh:     []int{4, 4, 4},
		Reps:     2,
		Seed:     &seed,
		Format:   format,
	}
}

// TestConcurrentIdenticalRequestsExecuteOneSimulation is the ISSUE's
// dedupe acceptance criterion: N identical requests in flight at once
// run the simulation exactly once, and every caller gets the same
// bytes.
func TestConcurrentIdenticalRequestsExecuteOneSimulation(t *testing.T) {
	s := service.New(service.Config{Procs: 2, QueueCap: 16})
	defer s.Close()

	const n = 8
	bodies := make([][]byte, n)
	outcomes := make([]service.Outcome, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body, outcome, _, err := s.Run(context.Background(), smallReq(2005, "csv"))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i], outcomes[i] = body, outcome
		}(i)
	}
	close(start)
	wg.Wait()

	if got := s.Counts().Misses; got != 1 {
		t.Errorf("%d identical concurrent requests executed %d simulations, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0 (%s vs %s)", i, outcomes[i], outcomes[0])
		}
	}
}

func TestCacheHitReturnsIdenticalBytes(t *testing.T) {
	s := service.New(service.Config{Procs: 2, QueueCap: 16})
	defer s.Close()

	first, outcome, key, err := s.Run(context.Background(), smallReq(2005, "json"))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != service.OutcomeMiss {
		t.Fatalf("cold request outcome = %s, want miss", outcome)
	}
	second, outcome, key2, err := s.Run(context.Background(), smallReq(2005, "json"))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != service.OutcomeHit {
		t.Errorf("repeat request outcome = %s, want hit", outcome)
	}
	if key != key2 {
		t.Errorf("same request resolved to different keys: %s vs %s", key, key2)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit returned different bytes than the miss that filled it")
	}
	if c := s.Counts(); c.Misses != 1 || c.Hits != 1 {
		t.Errorf("counts = %+v, want 1 miss and 1 hit", c)
	}
}

// TestServiceCSVMatchesSweep is the byte-identity acceptance
// criterion: the service's CSV body for a registry spec equals what
// cmd/sweep's pipeline (Build → RunTo → CSVSink) writes for the same
// spec, seed, and procs.
func TestServiceCSVMatchesSweep(t *testing.T) {
	spec, err := scenario.Build("fig1",
		scenario.WithMesh(4, 4, 4), scenario.WithReps(2), scenario.WithSeed(2005))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := scenario.RunTo(context.Background(), spec, export.NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Config{Procs: 2, QueueCap: 16})
	defer s.Close()
	got, _, _, err := s.Run(context.Background(), smallReq(2005, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("service CSV differs from sweep output:\nservice:\n%s\nsweep:\n%s", got, want.Bytes())
	}
}

func TestInlineSpecMatchesRegistrySpec(t *testing.T) {
	s := service.New(service.Config{Procs: 2, QueueCap: 16})
	defer s.Close()

	viaName, _, keyName, err := s.Run(context.Background(), smallReq(7, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Build("fig1", scenario.WithMesh(4, 4, 4), scenario.WithReps(2))
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(7)
	viaSpec, outcome, keySpec, err := s.Run(context.Background(),
		&service.RunRequest{Spec: &spec, Seed: &seed, Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	if keyName != keySpec {
		t.Errorf("registry and inline keys differ: %s vs %s", keyName, keySpec)
	}
	if outcome != service.OutcomeHit {
		t.Errorf("inline spec equivalent to a cached registry run: outcome = %s, want hit", outcome)
	}
	if !bytes.Equal(viaName, viaSpec) {
		t.Error("inline spec body differs from registry body")
	}
}

func TestBadRequestsAreClientErrors(t *testing.T) {
	s := service.New(service.Config{Procs: 1, QueueCap: 4})
	defer s.Close()
	ctx := context.Background()

	cases := []struct {
		name string
		req  *service.RunRequest
	}{
		{"unknown scenario", &service.RunRequest{Scenario: "no-such-fig"}},
		{"no work named", &service.RunRequest{}},
		{"both forms", &service.RunRequest{Scenario: "fig1", Spec: &scenario.Spec{}}},
		{"unknown format", &service.RunRequest{Scenario: "fig1", Format: "yaml"}},
	}
	for _, tc := range cases {
		if _, _, _, err := s.Run(ctx, tc.req); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	if got := s.Counts().Misses; got != 0 {
		t.Errorf("bad requests executed %d simulations", got)
	}
}

// TestBadShapeIsClientErrorAndDaemonSurvives posts a mesh with a
// zero extent: Key validation must reject it as a 4xx before any
// executor runs it, and the daemon must keep serving afterwards.
func TestBadShapeIsClientErrorAndDaemonSurvives(t *testing.T) {
	s := service.New(service.Config{Procs: 1, QueueCap: 4})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(`{"scenario":"saturation","mesh":[0,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("POST mesh [0,4]: %s, want a 4xx: %s", resp.Status, body.String())
	}
	if !strings.Contains(body.String(), "Dims") {
		t.Errorf("error does not name the field: %s", body.String())
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the bad request: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if got := s.Counts().Misses; got != 0 {
		t.Errorf("bad shape executed %d simulations", got)
	}
}

// TestHTTPSurface exercises the wire layer end to end: miss then hit
// with identical bodies and truthful cache headers, the scenario
// listing, liveness, and the metrics exposition.
func TestHTTPSurface(t *testing.T) {
	s := service.New(service.Config{Procs: 2, QueueCap: 16})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func() (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(smallReq(2005, "csv"))
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	r1, b1 := post()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %s: %s", r1.Status, b1)
	}
	if got := r1.Header.Get("X-Wormsim-Cache"); got != "miss" {
		t.Errorf("first POST X-Wormsim-Cache = %q, want miss", got)
	}
	r2, b2 := post()
	if got := r2.Header.Get("X-Wormsim-Cache"); got != "hit" {
		t.Errorf("second POST X-Wormsim-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("hit body differs from miss body over HTTP")
	}
	if k1, k2 := r1.Header.Get("X-Wormsim-Key"), r2.Header.Get("X-Wormsim-Key"); k1 == "" || k1 != k2 {
		t.Errorf("X-Wormsim-Key mismatch: %q vs %q", k1, k2)
	}

	resp, err := http.Get(srv.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Summary string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != len(scenario.Names()) {
		t.Errorf("/v1/scenarios listed %d scenarios, registry has %d", len(list), len(scenario.Names()))
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"wormsimd_requests_total 2",
		"wormsimd_cache_hits_total 1",
		"wormsimd_misses_total 1",
		"wormsimd_queue_depth",
		"wormsimd_cache_bytes",
		"wormsimd_hit_latency_seconds_count 1",
		"wormsimd_miss_latency_seconds_count 1",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics.String())
		}
	}
}

func TestCacheEviction(t *testing.T) {
	// Learn one rendered body's size, then budget the cache for two
	// bodies so the third insertion must evict the LRU entry.
	probe := service.New(service.Config{Procs: 2, QueueCap: 16})
	body, _, _, err := probe.Run(context.Background(), smallReq(1, "csv"))
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Config{Procs: 2, QueueCap: 16, CacheBytes: int64(2*len(body) + len(body)/2)})
	defer s.Close()
	ctx := context.Background()

	for seed := uint64(1); seed <= 3; seed++ {
		if _, _, _, err := s.Run(ctx, smallReq(seed, "csv")); err != nil {
			t.Fatal(err)
		}
	}
	// Seed 1 is the LRU victim: re-requesting it is a fresh miss,
	// while seed 3 is still resident.
	if _, outcome, _, err := s.Run(ctx, smallReq(3, "csv")); err != nil || outcome != service.OutcomeHit {
		t.Errorf("seed 3: outcome=%s err=%v, want resident hit", outcome, err)
	}
	if _, outcome, _, err := s.Run(ctx, smallReq(1, "csv")); err != nil || outcome != service.OutcomeMiss {
		t.Errorf("seed 1: outcome=%s err=%v, want evicted miss", outcome, err)
	}
}

func TestCloseDrainsInFlightRequests(t *testing.T) {
	s := service.New(service.Config{Procs: 1, QueueCap: 4})
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.Run(context.Background(), smallReq(42, "csv"))
		done <- err
	}()
	// Close must block until the admitted request completes; after it
	// returns, the waiter must already have its answer.
	s.Close()
	if err := <-done; err != nil && !errors.Is(err, service.ErrBusy) {
		t.Errorf("request during shutdown: %v", err)
	}
	if _, _, _, err := s.Run(context.Background(), smallReq(43, "csv")); !errors.Is(err, service.ErrBusy) {
		t.Errorf("request after Close: err=%v, want ErrBusy", err)
	}
}

func ExampleServer() {
	s := service.New(service.Config{Procs: 1, QueueCap: 4})
	defer s.Close()
	seed := uint64(2005)
	_, outcome1, _, _ := s.Run(context.Background(), &service.RunRequest{
		Scenario: "fig1", Mesh: []int{4, 4, 4}, Reps: 2, Seed: &seed, Format: "csv"})
	_, outcome2, _, _ := s.Run(context.Background(), &service.RunRequest{
		Scenario: "fig1", Mesh: []int{4, 4, 4}, Reps: 2, Seed: &seed, Format: "csv"})
	fmt.Println(outcome1, outcome2)
	// Output: miss hit
}
