package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

// fakePredict is an in-process /predict transport, safe for the concurrent
// round trips of scoreWindow's lanes. It answers each request with one score
// per point the body names, and keeps a copy of every body when keep is set.
type fakePredict struct {
	keep bool
	// echo scores each point with its ID, so a test can tell where a reply
	// landed.
	echo bool
	// hook, when set, runs before each reply with the request's context and
	// the chunk its first ID starts, and returns the reply's status.
	hook func(ctx context.Context, chunk int) int

	free    chan *bytes.Buffer // request body buffers, one per lane
	mu      sync.Mutex
	bodies  [][]byte
	replies map[int][]byte // reply by point count, built once
}

func (f *fakePredict) RoundTrip(req *http.Request) (*http.Response, error) {
	body := <-f.free
	defer func() { f.free <- body }()
	body.Reset()
	_, err := body.ReadFrom(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	status := http.StatusOK
	if f.hook != nil {
		status = f.hook(req.Context(), (firstID(body.Bytes())-wireFirst)/batchSize)
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.keep {
		f.bodies = append(f.bodies, bytes.Clone(body.Bytes()))
	}
	reply := func(b []byte) (*http.Response, error) {
		return &http.Response{StatusCode: status, Body: io.NopCloser(bytes.NewReader(b)), Request: req}, nil
	}
	switch {
	case status != http.StatusOK:
		return reply([]byte("queue full\n"))
	case f.echo:
		return reply(echoReply(body.Bytes()))
	}
	n := bytes.Count(body.Bytes(), []byte(`"id":`))
	if f.replies[n] == nil {
		f.replies[n] = []byte(`{"scores":[` + strings.TrimSuffix(strings.Repeat("0.25,", n), ",") + `],"model_seq":1,"kind":"early"}`)
	}
	return reply(f.replies[n])
}

// firstID returns the first point ID a /predict body names.
func firstID(body []byte) int {
	_, rest, _ := bytes.Cut(body, []byte(`"id":`))
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return -1
	}
	id, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return id
}

// echoReply is a /predict reply that scores each point of body with its ID.
func echoReply(body []byte) []byte {
	var req struct {
		Points []serve.PointRequest `json:"points"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil
	}
	scores := make([]float64, len(req.Points))
	for i, p := range req.Points {
		scores[i] = float64(p.ID)
	}
	b, _ := json.Marshal(map[string]any{"scores": scores})
	return b
}

// wireController is a controller whose /predict is f, 32 points a request.
func wireController(f *fakePredict) *Controller {
	f.replies = map[int][]byte{}
	f.free = make(chan *bytes.Buffer, lanes)
	for range lanes {
		f.free <- new(bytes.Buffer)
	}
	return &Controller{cfg: Config{BaseURL: "http://predict.test", Client: &http.Client{Transport: f}}}
}

// wireFirst is the first traffic ID the wire tests score: IDs above 255,
// which the map form boxes one by one.
const wireFirst = 1000

// TestPredictBodyMatchesMapForm: each /predict body scoreWindow sends is,
// byte for byte, the encoding of the per-point maps it replaced — for a
// full 32-point batch and for the window's short last batch. The two ride
// different lanes, so bodies are matched by their first ID, not by arrival.
func TestPredictBodyMatchesMapForm(t *testing.T) {
	f := &fakePredict{keep: true}
	const n = 40
	scores, err := wireController(f).scoreWindow(context.Background(), wireFirst, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != n || len(f.bodies) != 2 {
		t.Fatalf("%d scores in %d requests, want %d in 2", len(scores), len(f.bodies), n)
	}
	byFirst := map[int][]byte{}
	for _, b := range f.bodies {
		byFirst[firstID(b)] = b
	}
	for _, ids := range [][2]int{{wireFirst, wireFirst + 32}, {wireFirst + 32, wireFirst + n}} {
		var old struct {
			Points []map[string]any `json:"points"`
		}
		for id := ids[0]; id < ids[1]; id++ {
			old.Points = append(old.Points, map[string]any{"id": id, "modality": string(synth.Image)})
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if got := byFirst[ids[0]]; !bytes.Equal(got, want) {
			t.Errorf("%d-point body:\n got %s\nwant %s", ids[1]-ids[0], got, want)
		}
	}
}

// TestScoreWindowLandsByOffset: each even-numbered chunk is held back until
// the odd chunk after it has been answered, so replies land out of traffic
// order (and a scoreWindow with one request in flight would stall), yet
// every score sits at its point's traffic offset, the short last chunk's
// too.
func TestScoreWindowLandsByOffset(t *testing.T) {
	const n, chunks = 5*batchSize + 7, 6
	var answered [chunks]chan struct{}
	for k := range answered {
		answered[k] = make(chan struct{})
	}
	var mu sync.Mutex
	var order []int
	f := &fakePredict{echo: true, hook: func(_ context.Context, chunk int) int {
		if chunk%2 == 0 {
			select {
			case <-answered[chunk+1]:
			case <-time.After(10 * time.Second):
				t.Errorf("chunk %d: chunk %d never arrived while it was in flight", chunk, chunk+1)
			}
		}
		mu.Lock()
		order = append(order, chunk)
		mu.Unlock()
		close(answered[chunk])
		return http.StatusOK
	}}
	scores, err := wireController(f).scoreWindow(context.Background(), wireFirst, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != n {
		t.Fatalf("%d scores for %d points", len(scores), n)
	}
	for i, s := range scores {
		if s != float64(wireFirst+i) {
			t.Fatalf("score %d is point %v's, want point %d's (chunks answered in order %v)", i, s, wireFirst+i, order)
		}
	}
}

// TestScoreWindowFirstErrorStopsLanes: one chunk answers 429 while the other
// lane's request hangs. scoreWindow returns the 429, cancels the hung
// request rather than waiting it out, sends no further chunk, and leaves no
// goroutine behind.
func TestScoreWindowFirstErrorStopsLanes(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	f := &fakePredict{hook: func(ctx context.Context, chunk int) int {
		mu.Lock()
		seen = append(seen, chunk)
		mu.Unlock()
		if chunk == 1 {
			return http.StatusTooManyRequests
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Errorf("chunk %d was not canceled after chunk 1 failed", chunk)
		}
		return http.StatusOK
	}}
	c := wireController(f)
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := c.scoreWindow(context.Background(), wireFirst, 6*batchSize)
	if err == nil || !strings.Contains(err.Error(), "429 queue full") {
		t.Fatalf("scoreWindow returned %v, want the 429", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("scoreWindow took %v: the hung lane was waited out", took)
	}
	for _, k := range seen {
		if k > 1 {
			t.Errorf("chunks requested %v: a lane went on after chunk 1 failed", seen)
			break
		}
	}
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines after the failed window, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(wait)
	}
}

// TestScoreWindowAllocsPerRequest: a /predict round trip allocates by
// request, not by point — the request encode, the transport and the reply
// decode cost the same for 32 points as for 8.
func TestScoreWindowAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	c := wireController(&fakePredict{})
	ctx := context.Background()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := c.scoreWindow(ctx, wireFirst, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, full := allocs(8), allocs(32); full != small {
		t.Errorf("one request allocates %v times for 32 points, %v for 8", full, small)
	}
}
