// Command loadgen drives the inference service at a target rate and reports
// latency and shed-rate statistics as a human table:
//
//	loadgen -url http://127.0.0.1:8099 -qps 2000 -duration 10s
//
// Two load modes:
//
//   - closed (default): -conns workers issue requests back-to-back; the
//     offered rate is whatever the server sustains (throughput probe).
//   - open: requests are paced at -qps regardless of completions (the
//     shed-behavior probe — an overloaded server must answer 429 quickly,
//     not build a backlog).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		url       = flag.String("url", "http://127.0.0.1:8099", "server base URL")
		qps       = flag.Int("qps", 2000, "target request rate (open mode only)")
		duration  = flag.Duration("duration", 5*time.Second, "how long to drive load")
		conns     = flag.Int("conns", 8, "concurrent workers / connections")
		batch     = flag.Int("batch", 1, "points per request; throughput and shed stats count points")
		mode      = flag.String("mode", "closed", "load mode: closed (back-to-back) or open (paced at -qps)")
		ids       = flag.Int("ids", 4096, "request ID space; IDs cycle over [0, ids)")
		waitReady = flag.Duration("wait-ready", 10*time.Second, "poll /readyz this long before driving load (0 skips)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request client timeout")
	)
	flag.Parse()
	cfg := genConfig{
		url: *url, mode: *mode, qps: *qps, conns: *conns, ids: *ids, batch: *batch,
		duration: *duration, timeout: *timeout,
	}
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}
	if err := waitUntilReady(*url, *waitReady); err != nil {
		log.Fatal(err)
	}
	res := drive(*url, *mode, *qps, *conns, *ids, *batch, *duration, *timeout)
	report(res, *mode, *qps)
	if res.ok == 0 {
		os.Exit(1)
	}
}

// genConfig is the validated flag set of one load-generation run.
type genConfig struct {
	url, mode              string
	qps, conns, ids, batch int
	duration, timeout      time.Duration
}

// validate rejects flag combinations that would drive no load or divide by
// zero, naming the offending flag.
func (c genConfig) validate() error {
	if c.url == "" {
		return fmt.Errorf("-url must not be empty")
	}
	if c.mode != "closed" && c.mode != "open" {
		return fmt.Errorf("-mode %q: want closed or open", c.mode)
	}
	if c.mode == "open" && c.qps <= 0 {
		return fmt.Errorf("-qps %d: open mode needs a rate > 0", c.qps)
	}
	if c.conns <= 0 {
		return fmt.Errorf("-conns %d: must be > 0", c.conns)
	}
	if c.ids <= 0 {
		return fmt.Errorf("-ids %d: must be > 0", c.ids)
	}
	if c.batch <= 0 {
		return fmt.Errorf("-batch %d: must be > 0", c.batch)
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration %v: must be > 0", c.duration)
	}
	if c.timeout <= 0 {
		return fmt.Errorf("-timeout %v: must be > 0", c.timeout)
	}
	return nil
}

func waitUntilReady(url string, budget time.Duration) error {
	if budget <= 0 {
		return nil
	}
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", url, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// result aggregates one run. Latencies are recorded per worker and merged
// afterwards, so the hot path takes no lock.
type result struct {
	ok, shed, notReady, failed uint64
	latencies                  []time.Duration // successful requests only
	elapsed                    time.Duration
}

func drive(url, mode string, qps, conns, ids, batch int, duration, timeout time.Duration) *result {
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns * 2,
			MaxIdleConnsPerHost: conns * 2,
		},
	}

	// Open mode: a paced token channel; workers block on it. Pacing is
	// deficit-based — every millisecond the pacer issues however many
	// tokens elapsed wall time says are owed — because a per-request
	// ticker at sub-millisecond intervals coalesces missed ticks and
	// silently undershoots the target rate. Tokens that find the buffer
	// full are dropped, not deferred: an open-loop generator never lets
	// a slow server push the offered load into the future.
	var tokens chan struct{}
	stop := make(chan struct{})
	pacerStart := time.Now()
	if mode == "open" {
		tokens = make(chan struct{}, max(1, qps/10))
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			var issued int64
			for {
				select {
				case <-tick.C:
					owed := int64(time.Since(pacerStart).Seconds()*float64(qps)) - issued
					for ; owed > 0; owed-- {
						issued++
						select {
						case tokens <- struct{}{}:
						default: // workers saturated; shed at the client
						}
					}
				case <-stop:
					return
				}
			}
		}()
	}

	var nextID atomic.Uint64
	var ok, shed, notReady, failed atomic.Uint64
	perWorker := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(duration)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 4096)
			body := make([]byte, 0, 64)
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
					}
					if !time.Now().Before(deadline) {
						break
					}
				}
				body = body[:0]
				body = append(body, `{"points":[`...)
				for k := 0; k < batch; k++ {
					if k > 0 {
						body = append(body, ',')
					}
					body = append(body, `{"id":`...)
					body = appendInt(body, int(nextID.Add(1))%ids)
					body = append(body, '}')
				}
				body = append(body, `]}`...)
				t0 := time.Now()
				resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					failed.Add(1)
					continue
				}
				// Drain before closing: an unread body forces the transport
				// to tear down the connection, and at serving rates the
				// TCP+TLS setup tax dwarfs everything else.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// Counters are per point, so throughput and shed rates mean
				// the same thing at every -batch setting. Latency is per
				// request: every point in a batch waits for the whole reply.
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(uint64(batch))
					lats = append(lats, lat)
				case http.StatusTooManyRequests, http.StatusGatewayTimeout:
					shed.Add(uint64(batch))
				case http.StatusServiceUnavailable:
					notReady.Add(uint64(batch))
				default:
					failed.Add(uint64(batch))
				}
			}
			perWorker[w] = lats
		}(w)
	}
	wg.Wait()
	close(stop)

	res := &result{
		ok:       ok.Load(),
		shed:     shed.Load(),
		notReady: notReady.Load(),
		failed:   failed.Load(),
		elapsed:  time.Since(start),
	}
	for _, lats := range perWorker {
		res.latencies = append(res.latencies, lats...)
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res
}

func appendInt(b []byte, v int) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

func (r *result) quantile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(r.latencies)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(r.latencies) {
		i = len(r.latencies) - 1
	}
	return r.latencies[i]
}

func report(r *result, mode string, qps int) {
	total := r.ok + r.shed + r.notReady + r.failed
	achieved := float64(r.ok) / r.elapsed.Seconds()
	fmt.Printf("mode=%s points=%d ok=%d shed=%d not_ready=%d failed=%d\n",
		mode, total, r.ok, r.shed, r.notReady, r.failed)
	if mode == "open" {
		fmt.Printf("target %d req/s, achieved %.0f req/s over %.2fs\n", qps, achieved, r.elapsed.Seconds())
	} else {
		fmt.Printf("achieved %.0f req/s over %.2fs\n", achieved, r.elapsed.Seconds())
	}
	p50, p95, p99 := r.quantile(0.50), r.quantile(0.95), r.quantile(0.99)
	var pMax time.Duration
	if n := len(r.latencies); n > 0 {
		pMax = r.latencies[n-1]
	}
	fmt.Printf("latency p50=%s p95=%s p99=%s max=%s\n", p50, p95, p99, pMax)
}
