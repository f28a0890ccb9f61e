package fusion

import (
	"bytes"
	"path/filepath"
	"testing"
)

// roundTrip saves p, loads it back, and asserts bit-identical predictions on
// test vectors via both the single and batch paths.
func roundTrip(t *testing.T, p Predictor, wantKind string) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveLineage(&buf, p, nil); err != nil {
		t.Fatal(err)
	}
	got, kind, _, err := LoadLineage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if kind != wantKind {
		t.Fatalf("kind %q, want %q", kind, wantKind)
	}
	test, _ := corpusFor("roundtrip-test", 300, true, 0.15, 99)
	wantBatch := p.PredictBatch(test.Vectors)
	gotBatch := got.PredictBatch(test.Vectors)
	for i, v := range test.Vectors {
		if w, g := p.Predict(v), got.Predict(v); w != g {
			t.Fatalf("vector %d: Predict %v != %v", i, w, g)
		}
		if wantBatch[i] != gotBatch[i] {
			t.Fatalf("vector %d: PredictBatch %v != %v", i, wantBatch[i], gotBatch[i])
		}
	}
}

func TestArtifactRoundTripEarly(t *testing.T) {
	text, _ := corpusFor("text", 800, false, 0.1, 21)
	img, _ := corpusFor("image", 500, true, 0.15, 22)
	m, err := TrainEarly(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, KindEarly)
}

func TestArtifactRoundTripIntermediate(t *testing.T) {
	text, _ := corpusFor("text", 800, false, 0.1, 23)
	img, _ := corpusFor("image", 500, true, 0.15, 24)
	m, err := TrainIntermediate(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, KindIntermediate)
}

func TestArtifactRoundTripDeViSE(t *testing.T) {
	text, _ := corpusFor("text", 800, false, 0.1, 25)
	img, _ := corpusFor("image", 500, true, 0.15, 26)
	m, err := TrainDeViSE(ctxbg, []Corpus{text}, img, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, KindDeViSE)
}

func TestArtifactFileRoundTrip(t *testing.T) {
	img, _ := corpusFor("image", 500, true, 0.15, 27)
	m, err := TrainEarly(ctxbg, []Corpus{img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.xma")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, kind, _, err := LoadFileLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEarly {
		t.Fatalf("kind %q", kind)
	}
	test, _ := corpusFor("t", 100, true, 0.15, 28)
	for i, v := range test.Vectors {
		if w, g := m.Predict(v), got.Predict(v); w != g {
			t.Fatalf("vector %d: %v != %v", i, w, g)
		}
	}
}

func TestArtifactRejectsCorruption(t *testing.T) {
	img, _ := corpusFor("image", 400, true, 0.15, 29)
	m, err := TrainEarly(ctxbg, []Corpus{img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, _, _, err := LoadLineage(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[8] = 0xee
		if _, _, _, err := LoadLineage(bytes.NewReader(bad)); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x10
		if _, _, _, err := LoadLineage(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupt payload accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, _, err := LoadLineage(bytes.NewReader(raw[:len(raw)-7])); err == nil {
			t.Fatal("truncated artifact accepted")
		}
	})
}
