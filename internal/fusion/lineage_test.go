package fusion

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"
)

func lineageTestModel(t *testing.T) Predictor {
	t.Helper()
	img, _ := corpusFor("image", 400, true, 0.15, 31)
	m, err := TrainEarly(ctxbg, []Corpus{img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A nil lineage must write the version-1 layout byte for byte: every artifact
// written before the lineage section existed — and the fuzz corpus — stays
// valid, and bootstrap saves stay reproducible against golden files.
func TestSaveNilLineageIsVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveLineage(&buf, lineageTestModel(t), nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if string(raw[:8]) != "XMODART1" {
		t.Fatalf("magic %q", raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != 1 {
		t.Fatalf("version %d, want 1", v)
	}
	kindLen := int(binary.LittleEndian.Uint32(raw[12:]))
	if kind := string(raw[16 : 16+kindLen]); kind != KindEarly {
		t.Fatalf("kind %q", kind)
	}
	header := 16 + kindLen + 8
	payloadLen := int(binary.LittleEndian.Uint64(raw[16+kindLen:]))
	// Nothing follows the payload checksum: no lineage section, not even an
	// empty one.
	if want := header + payloadLen + 4; len(raw) != want {
		t.Fatalf("file is %d bytes, want header %d + payload %d + crc 4 = %d", len(raw), header, payloadLen, want)
	}
	p, kind, lg, err := LoadLineage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || kind != KindEarly || lg != nil {
		t.Fatalf("v1 artifact via LoadLineage: kind=%q lineage=%+v", kind, lg)
	}
}

// withLineageJSON replaces the lineage section of a version-2 artifact with
// meta and its checksum.
func withLineageJSON(t *testing.T, raw, meta []byte) []byte {
	t.Helper()
	kindLen := int(binary.LittleEndian.Uint32(raw[12:]))
	header := 16 + kindLen + 8
	end := header + int(binary.LittleEndian.Uint64(raw[16+kindLen:])) + 4
	out := append([]byte(nil), raw[:end]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(meta)))
	out = append(out, meta...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(meta))
}

func TestLineageRoundTrip(t *testing.T) {
	m := lineageTestModel(t)
	want := &Lineage{
		Task:    "CT1",
		Trigger: "drift:reports,serve_score",
		Window:  7,
		Parent:  "artifacts/model-0001.bin",
		Seed:    42,
	}
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, want); err != nil {
		t.Fatal(err)
	}
	// Artifacts written while Lineage still had an "extra" annotation map
	// load too: the decoder ignores keys it does not know.
	legacy := withLineageJSON(t, buf.Bytes(), []byte(`{"task":"CT1","trigger":"drift:reports,serve_score",`+
		`"window":7,"parent":"artifacts/model-0001.bin","seed":42,"extra":{"schedule":"smoke"}}`))
	for name, raw := range map[string][]byte{"saved": buf.Bytes(), "with extra": legacy} {
		p, kind, got, err := LoadLineage(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if kind != KindEarly {
			t.Fatalf("%s: kind = %q", name, kind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lineage round trip:\ngot  %+v\nwant %+v", name, got, want)
		}
		// The model payload survives intact alongside the metadata.
		test, _ := corpusFor("lineage-test", 100, true, 0.15, 32)
		for i, v := range test.Vectors {
			if w, g := m.Predict(v), p.Predict(v); w != g {
				t.Fatalf("%s: vector %d: Predict %v != %v after lineage round trip", name, i, w, g)
			}
		}
	}
}

func TestLineageFileRoundTrip(t *testing.T) {
	m := lineageTestModel(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	lg := &Lineage{Task: "CT2", Trigger: "bootstrap"}
	if err := SaveFileLineage(path, m, lg); err != nil {
		t.Fatal(err)
	}
	_, kind, got, err := LoadFileLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEarly || !reflect.DeepEqual(got, lg) {
		t.Fatalf("file round trip: kind=%q lineage=%+v", kind, got)
	}
}

func TestLineageChecksumRejected(t *testing.T) {
	m := lineageTestModel(t)
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, &Lineage{Task: "CT1"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit inside the lineage JSON (it sits between the payload CRC
	// and the trailing lineage CRC).
	raw[len(raw)-6] ^= 0x01
	if _, _, _, err := LoadLineage(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted lineage section accepted")
	}
	// Truncating the lineage section must also fail loudly.
	if _, _, _, err := LoadLineage(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Fatal("truncated lineage section accepted")
	}
}

func TestLineageUnknownVersionRejected(t *testing.T) {
	m := lineageTestModel(t)
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 3 // version field follows the 8-byte magic
	if _, _, _, err := LoadLineage(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown artifact version accepted")
	}
}
