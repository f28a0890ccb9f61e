package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmodal/internal/faulty"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// newChaosServer builds a server whose featurestore sits on a fault-injected,
// guard-wrapped copy of the standard library. The model is installed directly
// (no canary) so startup cannot consume injection ordinals.
func newChaosServer(t *testing.T, sched faulty.Schedule, pol resource.Policy) (*Server, *featurestore.Store, *httptest.Server) {
	t.Helper()
	fixture(t)
	lib, err := resource.StandardLibrary(fx.world)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _, err := faulty.WrapLibrary(lib, sched)
	if err != nil {
		t.Fatal(err)
	}
	store, err := featurestore.New(wrapped.WithGuards(pol, nil), 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:   store,
		World:   fx.world,
		Seed:    fxSeed,
		Batcher: BatcherConfig{QueueDepth: 256},
		Workers: 1,
		Timeout: 5 * time.Second,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, store, ts
}

func quietGuardPolicy() resource.Policy {
	return resource.Policy{
		MaxAttempts:      3,
		BreakerThreshold: -1,
		Sleep:            func(time.Duration) {},
	}
}

// metricValue pulls one plain (unlabeled) gauge out of a /metrics body.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestChaosServeZeroFaultBitIdentical: the whole guarded serving stack at
// zero fault rates returns bit-identical scores to the plain fixture store.
func TestChaosServeZeroFaultBitIdentical(t *testing.T) {
	_, store, ts := newChaosServer(t, faulty.Schedule{Seed: 5000}, quietGuardPolicy())
	for id := 0; id < 8; id++ {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict id %d: %d %s", id, resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if want := wantScore(t, fx.modelA, id); len(pr.Scores) != 1 || pr.Scores[0] != want {
			t.Fatalf("id %d: chaos-stack score %v, plain-stack %v", id, pr.Scores, want)
		}
	}
	if store.StaleServed() != 0 || store.DegradedServed() != 0 {
		t.Fatal("degradation counters moved at zero fault rate")
	}
}

// TestChaosServeDegradationCountersMatchSchedule drives sequential,
// unique-ID requests through an error-only schedule and checks that the
// store's degraded counter and the /metrics exposition both equal the count
// an offline replay of the schedule predicts.
func TestChaosServeDegradationCountersMatchSchedule(t *testing.T) {
	sched := faulty.Schedule{Seed: 6100, ErrorRate: 0.35}
	pol := quietGuardPolicy()
	_, store, ts := newChaosServer(t, sched, pol)

	lib, err := resource.StandardLibrary(fx.world)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wantDegraded, wantFailed int
	for id := 0; id < n; id++ {
		p := DerivePoint(fx.world, fxSeed, id, synth.Image, 0)
		applicable, failed := 0, 0
		for _, r := range lib.Resources() {
			if !resource.Applicable(r, p) {
				continue
			}
			applicable++
			if sched.FailsAttempts(p.Seed, r.Def().Name, 0, pol.MaxAttempts) {
				failed++
			}
		}
		switch {
		case failed == 0:
		case failed == applicable:
			wantFailed++
		default:
			wantDegraded++
		}
	}
	if wantDegraded == 0 {
		t.Fatal("schedule predicts no degradations; pick a different seed")
	}

	var gotFailed int
	for id := 0; id < n; id++ {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusInternalServerError:
			gotFailed++
		default:
			t.Fatalf("id %d: unexpected status %d %s", id, resp.StatusCode, body)
		}
	}
	if gotFailed != wantFailed {
		t.Fatalf("failed requests = %d, replay predicted %d", gotFailed, wantFailed)
	}
	if got := store.DegradedServed(); got != uint64(wantDegraded) {
		t.Fatalf("DegradedServed = %d, replay predicted %d", got, wantDegraded)
	}
	resp, metrics := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if got := metricValue(t, metrics, "serve_featurestore_degraded_served_total"); got != uint64(wantDegraded) {
		t.Fatalf("metrics degraded_served = %d, replay predicted %d", got, wantDegraded)
	}
	if got := metricValue(t, metrics, "serve_featurestore_stale_served_total"); got != 0 {
		t.Fatalf("metrics stale_served = %d with no TTL configured", got)
	}
}

// TestChaosServeShedsOnBreakerOpen: a dead resource fleet trips breakers;
// requests shed with 503 + Retry-After, the shed counter moves, and readyz
// stays 200 while reporting the open breakers.
func TestChaosServeShedsOnBreakerOpen(t *testing.T) {
	pol := resource.Policy{
		MaxAttempts:      3,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the whole test
		Sleep:            func(time.Duration) {},
	}
	s, _, ts := newChaosServer(t, faulty.Schedule{Seed: 6200, ErrorRate: 1}, pol)

	saw503 := false
	for id := 0; id < 6; id++ {
		resp, _ := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			saw503 = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("503 Retry-After = %q, want \"1\"", ra)
			}
		case http.StatusInternalServerError:
			// Pre-trip failures surface as plain unavailability.
		default:
			t.Fatalf("id %d: unexpected status %d", id, resp.StatusCode)
		}
	}
	if !saw503 {
		t.Fatal("no request was shed with 503 while breakers were open")
	}
	if s.Metrics().ShedBreaker.Load() == 0 {
		t.Fatal("serve_shed_breaker_total did not move")
	}
	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d; open breakers must degrade, not unready", resp.StatusCode)
	}
	if !strings.Contains(body, "breakers_open=") || strings.Contains(body, "breakers_open=0") {
		t.Fatalf("readyz body %q does not report open breakers", body)
	}
	resp, metrics := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if metricValue(t, metrics, "serve_breakers_open") == 0 {
		t.Fatal("serve_breakers_open gauge is 0 with dead resources")
	}
	if metricValue(t, metrics, "serve_shed_breaker_total") == 0 {
		t.Fatal("serve_shed_breaker_total metric is 0")
	}
	if !strings.Contains(metrics, `state="open"`) {
		t.Fatal("no per-resource breaker reports open state")
	}
}

// TestChaosServeRaceCleanUnderMixedFaults hammers /predict concurrently at a
// 30% mixed fault rate: every response must be a well-formed success or a
// mapped degradation status, retries stay bounded, and nothing panics or
// deadlocks (run with -race via make gate-full).
func TestChaosServeRaceCleanUnderMixedFaults(t *testing.T) {
	sched := faulty.Schedule{
		Seed:        6300,
		ErrorRate:   0.10,
		LatencyRate: 0.10,
		LatencyMin:  50 * time.Microsecond,
		LatencyMax:  200 * time.Microsecond,
		PartialRate: 0.10,
	}
	pol := quietGuardPolicy()
	pol.BreakerThreshold = 100 // present, effectively untrippable at this rate
	pol.Timeout = time.Second
	s, store, ts := newChaosServer(t, sched, pol)

	const workers, perWorker = 6, 30
	var wg sync.WaitGroup
	statuses := make([]map[int]int, workers)
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		statuses[w] = map[int]int{}
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				raw := fmt.Sprintf(`{"points":[{"id":%d}]}`, id)
				resp, err := client.Post(ts.URL+"/predict", "application/json", strings.NewReader(raw))
				if err != nil {
					t.Errorf("worker %d req %d: %v", w, i, err)
					return
				}
				var pr predictResponse
				dec := json.NewDecoder(resp.Body)
				if resp.StatusCode == http.StatusOK {
					if err := dec.Decode(&pr); err != nil {
						t.Errorf("worker %d req %d: decode: %v", w, i, err)
					} else if len(pr.Scores) != 1 || math.IsNaN(pr.Scores[0]) {
						t.Errorf("worker %d req %d: bad scores %v", w, i, pr.Scores)
					}
				}
				resp.Body.Close()
				statuses[w][resp.StatusCode]++
			}
		}(w)
	}
	wg.Wait()

	total := map[int]int{}
	for _, m := range statuses {
		for code, n := range m {
			total[code] += n
		}
	}
	for code := range total {
		switch code {
		case http.StatusOK, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout,
			http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d in %v", code, total)
		}
	}
	if total[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under 30%% faults: %v", total)
	}
	var calls, retries uint64
	maxAttempts := uint64(pol.MaxAttempts)
	for _, g := range store.Library().GuardStatuses() {
		calls += g.Calls
		retries += g.Retries
	}
	if retries > calls*(maxAttempts-1) {
		t.Fatalf("retries %d exceed bound %d", retries, calls*(maxAttempts-1))
	}
	_ = s
}
