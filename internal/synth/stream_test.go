package synth

import (
	"fmt"
	"reflect"
	"testing"
)

// TestStreamMatchesBuildDataset is the bit-identity gate for the streamed
// generator: chunked emission must reproduce BuildDataset's points exactly
// — same IDs, entities, seeds, labels — for every corpus, at any chunk
// size, including one that does not divide the corpus sizes. The recycled
// runs generate through a ring of two chunks, as streamed ingest does, and
// alternate the size asked for, so a refilled chunk crosses the text → image
// boundary, grows past its capacity and ends short.
func TestStreamMatchesBuildDataset(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		for _, chunk := range []int{1, 7, 64, 100000} {
			streamMatchesBuildDataset(t, chunk, recycle)
		}
	}
}

func streamMatchesBuildDataset(t *testing.T, chunk int, recycle bool) {
	cfg := DatasetConfig{
		Seed:               41,
		NumText:            300,
		NumUnlabeledImage:  120,
		NumHandLabelPool:   35,
		NumTest:            90,
		CalibrationSamples: 2000,
	}
	w := MustWorld(DefaultConfig())
	task, err := TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(w, task, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh world and task: calibration must happen inside NewStream
	// exactly as it does inside BuildDataset.
	w2 := MustWorld(DefaultConfig())
	task2, err := TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewStream(w2, task2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[CorpusKind][]*Point{
		TextCorpus:  ds.LabeledText,
		ImageCorpus: ds.UnlabeledImage,
		PoolCorpus:  ds.HandLabelPool,
		TestCorpus:  ds.TestImage,
	}
	// A recycled chunk's points are overwritten by the next refill, so each
	// chunk is checked as it arrives.
	got := map[CorpusKind]int{}
	var ring [2]*Chunk
	for k := 0; ; k++ {
		var c *Chunk
		if recycle {
			max := chunk
			if k%2 == 1 {
				max = chunk/2 + 1
			}
			c = stream.NextInto(ring[k%2], max)
			ring[k%2] = c
		} else {
			c = stream.Next(chunk)
		}
		if c == nil {
			break
		}
		where := fmt.Sprintf("chunk=%d recycle=%v: corpus %v", chunk, recycle, c.Corpus)
		if c.Start != got[c.Corpus] {
			t.Fatalf("%s chunk starts at %d, have %d points", where, c.Start, got[c.Corpus])
		}
		if len(c.Points) == 0 || len(c.Points) > chunk {
			t.Fatalf("%s chunk has %d points", where, len(c.Points))
		}
		for i, b := range c.Points {
			a := want[c.Corpus][c.Start+i]
			if a.ID != b.ID || a.Seed != b.Seed || a.Label != b.Label || a.Modality != b.Modality || a.Frames != b.Frames {
				t.Fatalf("%s point %d: got {id %d seed %x label %d}, want {id %d seed %x label %d}",
					where, c.Start+i, b.ID, b.Seed, b.Label, a.ID, a.Seed, a.Label)
			}
			if !reflect.DeepEqual(a.Entity, b.Entity) {
				t.Fatalf("%s point %d: entity %+v, want %+v", where, c.Start+i, *b.Entity, *a.Entity)
			}
		}
		got[c.Corpus] += len(c.Points)
	}
	for k, wantPts := range want {
		if got[k] != len(wantPts) {
			t.Fatalf("chunk=%d recycle=%v: corpus %v: %d points, want %d", chunk, recycle, k, got[k], len(wantPts))
		}
	}
}

func TestStreamRemaining(t *testing.T) {
	cfg := DatasetConfig{Seed: 3, NumText: 10, NumUnlabeledImage: 5, NumHandLabelPool: 0, NumTest: 4, CalibrationSamples: 500}
	w := MustWorld(DefaultConfig())
	task, err := TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(w, task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Next(6)
	if c.Corpus != TextCorpus || len(c.Points) != 6 {
		t.Fatalf("first chunk: %v/%d", c.Corpus, len(c.Points))
	}
	// Pool is empty; the stream must skip it without emitting a chunk.
	var kinds []CorpusKind
	for {
		c := s.Next(100)
		if c == nil {
			break
		}
		kinds = append(kinds, c.Corpus)
	}
	wantKinds := []CorpusKind{TextCorpus, ImageCorpus, TestCorpus}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("chunk corpora %v, want %v", kinds, wantKinds)
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("chunk corpora %v, want %v", kinds, wantKinds)
		}
	}
	if s.Next(1) != nil {
		t.Fatal("exhausted stream yielded another chunk")
	}
}

// TestCorpusKindString pins the corpus names consumers use in shard paths
// and log lines.
func TestCorpusKindString(t *testing.T) {
	cases := map[CorpusKind]string{
		TextCorpus:     "text",
		ImageCorpus:    "image",
		PoolCorpus:     "pool",
		TestCorpus:     "test",
		CorpusKind(99): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("CorpusKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestStreamSizeAndPastCorpus: Size reports config totals regardless of
// position, and a non-positive max falls back to the default chunk size.
func TestStreamSizeAndPastCorpus(t *testing.T) {
	cfg := DatasetConfig{Seed: 9, NumText: 6, NumUnlabeledImage: 3, NumHandLabelPool: 2, NumTest: 4, CalibrationSamples: 500}
	w := MustWorld(DefaultConfig())
	task, err := TaskByName("CT2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(w, task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size(TextCorpus) != 6 || s.Size(ImageCorpus) != 3 || s.Size(PoolCorpus) != 2 || s.Size(TestCorpus) != 4 {
		t.Fatalf("sizes %d/%d/%d/%d do not match config",
			s.Size(TextCorpus), s.Size(ImageCorpus), s.Size(PoolCorpus), s.Size(TestCorpus))
	}
	c := s.Next(0)
	if c == nil || c.Corpus != TextCorpus || len(c.Points) != 6 {
		t.Fatalf("Next(0) did not drain the text corpus under the default max: %+v", c)
	}
	c = s.Next(-1)
	if c == nil || c.Corpus != ImageCorpus || len(c.Points) != 3 {
		t.Fatalf("Next(-1) did not drain the image corpus under the default max: %+v", c)
	}
	if s.Size(TextCorpus) != 6 {
		t.Fatalf("Size(text) changed mid-stream: %d", s.Size(TextCorpus))
	}
}

// TestNewStreamRejectsBadConfig: NewStream applies the same config
// validation as BuildDataset before touching the task or RNG.
func TestNewStreamRejectsBadConfig(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task, err := TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStream(w, task, DatasetConfig{Seed: 1}); err == nil {
		t.Fatal("NewStream accepted zero corpus sizes")
	}
	bad := DatasetConfig{Seed: 1, NumText: 5, NumUnlabeledImage: 5, NumHandLabelPool: -1, NumTest: 5}
	if _, err := NewStream(w, task, bad); err == nil {
		t.Fatal("NewStream accepted a negative hand-label pool")
	}
}
