package mining

import (
	"context"
	"errors"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
)

// chunkedCorpus replays a dev set in fixed-size chunks, counting scans.
type chunkedCorpus struct {
	vecs   []*feature.Vector
	labels []int8
	chunk  int
	scans  int
}

func (c *chunkedCorpus) Schema() *feature.Schema { return c.vecs[0].Schema() }

func (c *chunkedCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	c.scans++
	for lo := 0; lo < len(c.vecs); lo += c.chunk {
		hi := lo + c.chunk
		if hi > len(c.vecs) {
			hi = len(c.vecs)
		}
		if err := fn(c.vecs[lo:hi], c.labels[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// TestMineStreamMatchesMine: mining a chunked corpus must produce the
// identical LF list and report as the in-memory miner, at every chunk size
// and at order 2 (which exercises the corpus re-scan path).
func TestMineStreamMatchesMine(t *testing.T) {
	vecs, labels := synthDev(3000, 5)
	mrCfg := mapreduce.Config{Workers: 2}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"order1", DefaultConfig()},
		{"order2", func() Config { c := DefaultConfig(); c.MaxOrder = 2; return c }()},
		{"no-numeric", func() Config { c := DefaultConfig(); c.NumericQuantiles = 0; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantReport, err := Mine(context.Background(), mrCfg, tc.cfg, vecs, labels)
			if err != nil {
				t.Fatalf("Mine: %v", err)
			}
			if len(want) == 0 {
				t.Fatal("fixture mined no LFs; test has no teeth")
			}
			for _, chunk := range []int{1, 97, 512, 5000} {
				corpus := &chunkedCorpus{vecs: vecs, labels: labels, chunk: chunk}
				got, gotReport, err := MineStream(context.Background(), mrCfg, tc.cfg, corpus)
				if err != nil {
					t.Fatalf("chunk=%d: MineStream: %v", chunk, err)
				}
				if gotReport != wantReport {
					t.Fatalf("chunk=%d: report %+v, want %+v", chunk, gotReport, wantReport)
				}
				if len(got) != len(want) {
					t.Fatalf("chunk=%d: %d LFs, want %d", chunk, len(got), len(want))
				}
				for i := range want {
					if got[i].Name != want[i].Name || got[i].Source != want[i].Source {
						t.Fatalf("chunk=%d: LF %d = %q/%q, want %q/%q",
							chunk, i, got[i].Name, got[i].Source, want[i].Name, want[i].Source)
					}
					// The functions themselves must vote identically.
					for _, v := range vecs[:200] {
						if got[i].Apply(v) != want[i].Apply(v) {
							t.Fatalf("chunk=%d: LF %q votes diverge", chunk, got[i].Name)
						}
					}
				}
			}
		})
	}
}

// TestMineStreamScanCount pins the pass budget: order-1 mining with
// numerics is a single scan; each extra Apriori order adds at most two
// (candidate counting per class side).
func TestMineStreamScanCount(t *testing.T) {
	vecs, labels := synthDev(2000, 9)
	mrCfg := mapreduce.Config{Workers: 2}

	corpus := &chunkedCorpus{vecs: vecs, labels: labels, chunk: 256}
	if _, _, err := MineStream(context.Background(), mrCfg, DefaultConfig(), corpus); err != nil {
		t.Fatal(err)
	}
	if corpus.scans != 1 {
		t.Fatalf("order-1 mining scanned the corpus %d times, want 1", corpus.scans)
	}

	cfg := DefaultConfig()
	cfg.MaxOrder = 2
	corpus = &chunkedCorpus{vecs: vecs, labels: labels, chunk: 256}
	if _, _, err := MineStream(context.Background(), mrCfg, cfg, corpus); err != nil {
		t.Fatal(err)
	}
	if corpus.scans > 3 {
		t.Fatalf("order-2 mining scanned the corpus %d times, want <= 3", corpus.scans)
	}
}

func TestMineStreamErrors(t *testing.T) {
	vecs, labels := synthDev(100, 2)
	mrCfg := mapreduce.Config{Workers: 1}
	// One-class corpus.
	all := make([]int8, len(labels))
	for i := range all {
		all[i] = -1
	}
	corpus := &chunkedCorpus{vecs: vecs, labels: all, chunk: 32}
	if _, _, err := MineStream(context.Background(), mrCfg, DefaultConfig(), corpus); err == nil {
		t.Fatal("one-class corpus mined without error")
	}
	// Mid-scan error propagates.
	boom := errors.New("scan failed")
	bad := corpusFunc{schema: vecs[0].Schema(), scan: func(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
		if err := fn(vecs[:50], labels[:50]); err != nil {
			return err
		}
		return boom
	}}
	if _, _, err := MineStream(context.Background(), mrCfg, DefaultConfig(), bad); !errors.Is(err, boom) {
		t.Fatalf("scan error = %v, want %v", err, boom)
	}
}

type corpusFunc struct {
	schema *feature.Schema
	scan   func(context.Context, func([]*feature.Vector, []int8) error) error
}

func (c corpusFunc) Schema() *feature.Schema { return c.schema }
func (c corpusFunc) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return c.scan(ctx, fn)
}
