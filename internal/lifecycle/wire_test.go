package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"crossmodal/internal/synth"
)

// fakePredict is an in-process /predict transport. It answers each request
// with one score per point the body names, and keeps a copy of every body
// when keep is set.
type fakePredict struct {
	keep    bool
	bodies  [][]byte
	body    bytes.Buffer
	replies map[int][]byte // reply by point count, built once
}

func (f *fakePredict) RoundTrip(req *http.Request) (*http.Response, error) {
	f.body.Reset()
	_, err := f.body.ReadFrom(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	if f.keep {
		f.bodies = append(f.bodies, bytes.Clone(f.body.Bytes()))
	}
	n := bytes.Count(f.body.Bytes(), []byte(`"id":`))
	if f.replies[n] == nil {
		f.replies[n] = []byte(`{"scores":[` + strings.TrimSuffix(strings.Repeat("0.25,", n), ",") + `],"model_seq":1,"kind":"early"}`)
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(f.replies[n])), Request: req}, nil
}

// wireController is a controller whose /predict is f, 32 points a request.
func wireController(f *fakePredict) *Controller {
	f.replies = map[int][]byte{}
	return &Controller{cfg: Config{BaseURL: "http://predict.test", Client: &http.Client{Transport: f}}}
}

// wireFirst is the first traffic ID the wire tests score: IDs above 255,
// which the map form boxes one by one.
const wireFirst = 1000

// TestPredictBodyMatchesMapForm: each /predict body scoreWindow sends is,
// byte for byte, the encoding of the per-point maps it replaced — for a
// full 32-point batch and for the window's short last batch.
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
	for k, ids := range [][2]int{{wireFirst, wireFirst + 32}, {wireFirst + 32, wireFirst + n}} {
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
		if got := f.bodies[k]; !bytes.Equal(got, want) {
			t.Errorf("%d-point body:\n got %s\nwant %s", ids[1]-ids[0], got, want)
		}
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
