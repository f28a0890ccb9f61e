package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pointsPerRequest is the request shape of every serving phase: the
// batch-scoring client of `make serve-bench`.
const pointsPerRequest = 8

// predictClient posts /predict requests and checks every reply.
type predictClient struct {
	url    string
	client *http.Client
}

func newPredictClient(baseURL string, conns int) *predictClient {
	return &predictClient{
		url: baseURL + "/predict",
		client: &http.Client{
			Timeout: 2 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *predictClient) close() { c.client.CloseIdleConnections() }

type predictReply struct {
	Scores   []float64 `json:"scores"`
	ModelSeq uint64    `json:"model_seq"`
}

// appendPredictBody renders the /predict request for ids into body.
func appendPredictBody(body []byte, ids []int) []byte {
	body = append(body[:0], `{"points":[`...)
	for k, id := range ids {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"id":`...)
		body = strconv.AppendInt(body, int64(id), 10)
		body = append(body, '}')
	}
	return append(body, `]}`...)
}

// post scores ids in one request; body is a buffer to reuse. Anything but a
// 200 carrying exactly one score per point is an error: non-200, shed,
// timeout and short replies all count as failed operations. parent >= 0 is
// the caller's span id, which the traced server's middleware nests under.
func (c *predictClient) post(ids []int, body []byte, parent int) (predictReply, []byte, error) {
	body = appendPredictBody(body, ids)
	var reply predictReply
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply, body, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply, body, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply, body, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, body, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return reply, body, err
	}
	if len(reply.Scores) != len(ids) {
		return reply, body, fmt.Errorf("%d scores for %d points", len(reply.Scores), len(ids))
	}
	return reply, body, nil
}

// loadStats is what one load phase observed. Latencies are in ms, of ok
// requests only, sorted ascending. It is also what the open-loop generator
// process reports to its parent.
type loadStats struct {
	Sent     int       `json:"sent"`
	OK       int       `json:"ok"`
	Failed   int       `json:"failed"`
	Lat      []float64 `json:"lat_ms"`
	ElapsedS float64   `json:"elapsed_s"`
	FirstErr string    `json:"first_err,omitempty"`
	// Closed loop only: ok requests completed in each full second.
	PerSecond []float64 `json:"per_second,omitempty"`
	// Open loop only: how late each request left, in ms, sorted; the request
	// rate asked for and offered; requests outstanding when the schedule
	// ended.
	Lag       []float64 `json:"lag_ms,omitempty"`
	TargetRPS float64   `json:"target_rps,omitempty"`
	Achieved  float64   `json:"achieved_rps,omitempty"`
	Backlog   int       `json:"backlog,omitempty"`

	errOnce sync.Once
}

func (s *loadStats) fail(err error) { s.errOnce.Do(func() { s.FirstErr = err.Error() }) }

func (s *loadStats) pointsOK() int { return s.OK * pointsPerRequest }

// capacityPPS is points scored OK per second: the median over the phase's
// full seconds, so one stall of the machine does not set the number, or the
// plain ratio when the phase was too short to have three of them.
func (s *loadStats) capacityPPS() float64 {
	if len(s.PerSecond) >= 3 {
		return median(s.PerSecond) * pointsPerRequest
	}
	return float64(s.pointsOK()) / s.ElapsedS
}

func (s *loadStats) count(phase string) phaseCount {
	pc := phaseCount{Phase: phase, Sent: s.Sent, OK: s.OK, Failed: s.Failed}
	if s.FirstErr != "" {
		pc.Note = "first error: " + s.FirstErr
	}
	return pc
}

// closedLoop runs callers goroutines, each sending its next request when the
// previous reply arrives, until d has passed or, when n > 0, until n requests
// were sent. With a recorder every request is a span the server's spans nest
// under.
func closedLoop(c *predictClient, callers int, d time.Duration, n int, nextID func() int, rec *recorder) *loadStats {
	st := &loadStats{}
	per := make([][]float64, callers)
	var sent, failed atomic.Int64
	perSecond := make([]atomic.Int64, int(d/time.Second))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]int, pointsPerRequest)
			var body []byte
			lats := make([]float64, 0, 1<<14)
			for {
				seq := int(sent.Add(1))
				if n > 0 && seq > n || n == 0 && !time.Now().Before(deadline) {
					sent.Add(-1)
					break
				}
				for k := range ids {
					ids[k] = nextID()
				}
				id := rec.begin(spClientRequest, -1, seq)
				t0 := time.Now()
				var err error
				_, body, err = c.post(ids, body, id)
				lat := time.Since(t0)
				rec.end(id)
				if err != nil {
					failed.Add(1)
					st.fail(err)
					continue
				}
				lats = append(lats, float64(lat)/1e6)
				if sec := int(time.Since(start) / time.Second); sec < len(perSecond) {
					perSecond[sec].Add(1)
				}
			}
			per[w] = lats
		}(w)
	}
	wg.Wait()
	st.ElapsedS = time.Since(start).Seconds()
	for _, l := range per {
		st.Lat = append(st.Lat, l...)
	}
	sort.Float64s(st.Lat)
	st.Sent, st.Failed = int(sent.Load()), int(failed.Load())
	st.OK = st.Sent - st.Failed
	for i := range perSecond {
		st.PerSecond = append(st.PerSecond, float64(perSecond[i].Load()))
	}
	return st
}

// Span names and the header of the traced serving run: the client's request
// span id travels in spanHeader so the server-side span can name it as its
// parent.
const (
	spClientRequest = "client.request"
	spHandler       = "serve.Handler"
	spanHeader      = "X-Bench-Span"
)

// spanMiddleware wraps the server's handler for the traced run. While on is
// false it only forwards, so one server serves both the untraced and the
// traced phase of a run.
type spanMiddleware struct {
	rec  *recorder
	on   atomic.Bool
	next http.Handler
}

func (m *spanMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.on.Load() {
		m.next.ServeHTTP(w, r)
		return
	}
	parent := -1
	if h := r.Header.Get(spanHeader); h != "" {
		if id, err := strconv.Atoi(h); err == nil {
			parent = id
		}
	}
	id := m.rec.begin(spHandler, parent, parent)
	m.next.ServeHTTP(w, r)
	m.rec.end(id)
}

// dueAt is the open-loop schedule: request i is due i intervals after the
// start, whatever happened to the requests before it.
func dueAt(start time.Time, i int, interval time.Duration) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// sleepUntil blocks the calling OS thread until due. The Go runtime rounds a
// sub-millisecond timer up to a millisecond when it parks in epoll, longer
// than the whole interval at these rates, and a yielding spin keeps every P
// busy, which starves the netpoller the server under test depends on. A raw
// nanosleep has the kernel's own resolution and leaves the P to the server.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early wake-up is retried by the loop
	}
}

// maxInFlight bounds the open loop's outstanding requests; a request due
// while that many are outstanding is counted as failed, not deferred.
const maxInFlight = 2048

// openLoop issues n requests on the fixed schedule dueAt, each in its own
// goroutine so a slow reply never delays a later request. send is timed from
// the request's due time, which charges the wait a stall imposes on the
// requests behind it.
func openLoop(n int, interval time.Duration, send func(i int) error) *loadStats {
	st := &loadStats{Sent: n, TargetRPS: float64(time.Second) / float64(interval)}
	lat := make([]float64, n)
	st.Lag = make([]float64, n)
	okFlag := make([]bool, n)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	runtime.LockOSThread() // sleepUntil sleeps the thread, not the goroutine
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := dueAt(start, i, interval)
		sleepUntil(due)
		st.Lag[i] = float64(time.Since(due)) / 1e6
		if inFlight.Add(1) > maxInFlight {
			inFlight.Add(-1)
			st.fail(fmt.Errorf("%d requests in flight", maxInFlight))
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := send(i)
			lat[i] = float64(time.Since(due)) / 1e6
			inFlight.Add(-1)
			if err != nil {
				st.fail(err)
				return
			}
			okFlag[i] = true
		}(i, due)
	}
	sendWindow := time.Since(start)
	st.Backlog = int(inFlight.Load())
	wg.Wait()
	st.ElapsedS = time.Since(start).Seconds()
	st.Achieved = float64(n) / sendWindow.Seconds()
	for i, ok := range okFlag {
		if ok {
			st.OK++
			st.Lat = append(st.Lat, lat[i])
		}
	}
	st.Failed = n - st.OK
	sort.Float64s(st.Lat)
	sort.Float64s(st.Lag)
	return st
}

// openLoopSpec is one open-loop phase, as handed to the generator process.
type openLoopSpec struct {
	URL      string  `json:"url"`
	RPS      float64 `json:"rps"`
	Requests int     `json:"requests"`
	Seed     int64   `json:"seed"`
	Hot      bool    `json:"hot"`
	// FirstFresh is the first of Requests×8 IDs reserved for this phase, so
	// a cold phase never repeats an ID the parent or another phase used.
	FirstFresh int `json:"first_fresh"`
}

// openLoopEnv carries the phase to the generator process. It is an
// environment variable, not a flag, so the test binary can be the generator
// too (TestMain).
const openLoopEnv = "BENCH_OPENLOOP_SPEC"

// runOpenLoopGenerator is the generator process: it offers the phase and
// prints its loadStats as one JSON line.
func runOpenLoopGenerator(raw string) int {
	var spec openLoopSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: open-loop spec:", err)
		return 2
	}
	ids := newIDStreams(spec.Seed, spec.Hot)
	ids.skipTo(spec.FirstFresh)
	client := newPredictClient(spec.URL, 256)
	defer client.close()
	st := openLoop(spec.Requests, time.Duration(float64(time.Second)/spec.RPS), func(int) error {
		req := make([]int, pointsPerRequest)
		for k := range req {
			req[k] = ids.next()
		}
		_, _, err := client.post(req, nil, -1)
		return err
	})
	if err := json.NewEncoder(os.Stdout).Encode(st); err != nil {
		return 2
	}
	return 0
}

// openLoopInChild runs one phase in a generator process of this binary. The
// generator gets a runtime of its own because, inside the server's process,
// it waits behind the server's garbage collector for a P at every wake-up
// and the lag it then reports is the server's, not its own.
func openLoopInChild(spec openLoopSpec) (*loadStats, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), openLoopEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the generator to end
	if err != nil {
		return nil, fmt.Errorf("open-loop generator: %w", err)
	}
	st := &loadStats{}
	if err := json.Unmarshal(out, st); err != nil {
		return nil, fmt.Errorf("open-loop generator output: %w", err)
	}
	return st, nil
}

// Generator honesty: an open-loop phase whose generator ran late, or did not
// offer the rate it was asked for, measured the generator and is discarded.
const (
	maxLagP99Ms      = 1.0
	minAchievedShare = 0.98
	sloP99Ms         = 5.0
	sloFailRatio     = 0.001
	// backlogMs: the schedule ended with more than this much offered load
	// still outstanding, so the queue was growing.
	backlogMs = 20.0
)

func (s *loadStats) lagP99() (float64, bool) { return percentile(s.Lag, 0.99) }

func (s *loadStats) generatorValid() (bool, string) {
	lag, ok := s.lagP99()
	switch {
	case !ok:
		return false, "too few requests for a lag p99"
	case lag > maxLagP99Ms:
		return false, fmt.Sprintf("generator lag p99 %.3f ms > %.1f ms", lag, maxLagP99Ms)
	case s.Achieved < minAchievedShare*s.TargetRPS:
		return false, fmt.Sprintf("offered %.0f req/s of %.0f asked", s.Achieved, s.TargetRPS)
	}
	return true, ""
}

func (s *loadStats) backlogGrowing() bool {
	return float64(s.Backlog) > s.TargetRPS*backlogMs/1000
}

// meetsSLO reports whether the phase held the latency limit without
// failures or a growing backlog.
func (s *loadStats) meetsSLO() bool {
	p99, ok := percentile(s.Lat, 0.99)
	return ok && p99 <= sloP99Ms && float64(s.Failed) <= sloFailRatio*float64(s.Sent) && !s.backlogGrowing()
}
