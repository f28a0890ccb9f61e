package fusion

import (
	"bytes"
	"encoding/gob"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/model"
)

// quantEarly trains a small early-fusion model for the precision-stamp and
// serving-scorer tests.
func quantEarly(t *testing.T) *EarlyModel {
	t.Helper()
	text, _ := corpusFor("text", 900, false, 0.1, 41)
	img, _ := corpusFor("image", 500, true, 0.15, 42)
	m, err := TrainEarly(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// PredictBatchQ returns PredictBatchQInto's scores in a fresh slice.
func (m *EarlyModel) PredictBatchQ(vs []*feature.Vector) []float64 {
	out := make([]float64, len(vs))
	m.PredictBatchQInto(vs, out)
	return out
}

func TestSetServePrecisionValidation(t *testing.T) {
	m := quantEarly(t)
	if err := m.SetServePrecision(model.Precision(9)); err == nil {
		t.Error("invalid precision accepted")
	}
	if err := m.SetServePrecision(model.Int8); err != nil {
		t.Fatal(err)
	}
	if m.ServePrecision() != model.Int8 {
		t.Fatalf("serve precision = %v, want int8", m.ServePrecision())
	}
}

// TestEarlyQuantIntoPanics pins the out-length contract of the Into path.
func TestEarlyQuantIntoPanics(t *testing.T) {
	m := quantEarly(t)
	test, _ := corpusFor("panic-test", 8, true, 0.15, 45)
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	m.PredictBatchQInto(test.Vectors, make([]float64, len(test.Vectors)-1))
}

// TestArtifactPreservesPrecision round-trips the serve-precision stamp
// through the artifact format and checks the quantized scores survive.
func TestArtifactPreservesPrecision(t *testing.T) {
	m := quantEarly(t)
	if err := m.SetServePrecision(model.Float32); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, kind, _, err := LoadLineage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEarly {
		t.Fatalf("kind %q", kind)
	}
	back := got.(*EarlyModel)
	if back.ServePrecision() != model.Float32 {
		t.Fatalf("decoded precision = %v, want f32", back.ServePrecision())
	}
	test, _ := corpusFor("prec-test", 200, true, 0.15, 46)
	want := m.PredictBatchQ(test.Vectors)
	have := back.PredictBatchQ(test.Vectors)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("vector %d: decoded quantized score %v, original %v", i, have[i], want[i])
		}
	}
}

// TestStampedArtifactsScoreExactly: artifacts stamped f32 or int8 load with
// their stamp and score bit-identical to the float64 PredictBatch, through
// the serving scorer and PredictBatch alike.
func TestStampedArtifactsScoreExactly(t *testing.T) {
	m := quantEarly(t)
	test, _ := corpusFor("stamp-test", 200, true, 0.15, 48)
	want := m.PredictBatch(test.Vectors)
	for _, p := range []model.Precision{model.Float32, model.Int8} {
		if err := m.SetServePrecision(p); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveLineage(&buf, m, nil); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := LoadLineage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		back := got.(*EarlyModel)
		if back.ServePrecision() != p {
			t.Fatalf("decoded precision = %v, want %v", back.ServePrecision(), p)
		}
		served := make([]float64, len(test.Vectors))
		back.PredictBatchQInto(test.Vectors, served)
		batch := back.PredictBatch(test.Vectors)
		for i := range want {
			if served[i] != want[i] || batch[i] != want[i] {
				t.Fatalf("%v vector %d: served %x, PredictBatch %x, want %x", p, i, served[i], batch[i], want[i])
			}
		}
	}
}

// TestArtifactRejectsUnknownPrecision corrupts the wire precision and
// asserts decode refuses it instead of serving at a precision it cannot
// dispatch.
func TestArtifactRejectsUnknownPrecision(t *testing.T) {
	m := quantEarly(t)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(earlyWire{VZ: m.vz, Net: m.net, Workers: m.workers, Prec: model.Precision(7)})
	if err != nil {
		t.Fatal(err)
	}
	var back EarlyModel
	if err := back.GobDecode(buf.Bytes()); err == nil {
		t.Error("unknown wire precision decoded without error")
	}
}

// TestEarlyQuantArenaReuse exercises the pooled transform arena across
// differently sized batches (grow, shrink, regrow): the serving scorer
// returns PredictBatch's scores exactly, and once its pools are warm a batch
// allocates nothing.
func TestEarlyQuantArenaReuse(t *testing.T) {
	m := quantEarly(t)
	test, _ := corpusFor("arena-test", 300, true, 0.15, 47)
	ref := m.PredictBatch(test.Vectors)
	for _, n := range []int{300, 17, 300, 1, 128} {
		out := make([]float64, n)
		m.PredictBatchQInto(test.Vectors[:n], out)
		for i := 0; i < n; i++ {
			if out[i] != ref[i] {
				t.Fatalf("batch %d vector %d: %v != %v", n, i, out[i], ref[i])
			}
		}
	}
	if raceEnabled {
		return // the race runtime adds bookkeeping allocations
	}
	out := make([]float64, 64)
	if allocs := testing.AllocsPerRun(50, func() {
		m.PredictBatchQInto(test.Vectors[:64], out)
	}); allocs != 0 {
		t.Errorf("%v allocs per 64-vector batch, want 0", allocs)
	}
}
