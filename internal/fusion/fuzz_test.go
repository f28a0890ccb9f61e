package fusion

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

// fuzzArtifact builds one real, small EarlyModel artifact once; it seeds both
// fuzz targets so the fuzzer starts from valid bytes and mutates from there.
var fuzzArtifact = sync.OnceValues(func() ([]byte, error) {
	img, _ := corpusFor("image", 60, true, 0.15, 91)
	cfg := baseConfig()
	cfg.Model.Epochs = 1
	m, err := TrainEarly(ctxbg, []Corpus{img}, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := SaveLineage(&buf, m, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// FuzzArtifactLoad: LoadLineage on arbitrary bytes must either succeed with a
// usable predictor or return an error — never panic, and never allocate
// anywhere near what a lying length header claims.
func FuzzArtifactLoad(f *testing.F) {
	art, err := fuzzArtifact()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(art)
	f.Add(art[:len(art)/2]) // truncated payload
	f.Add([]byte("XMODART1"))
	f.Add([]byte{})
	// Valid prefix with a payload length claiming 1 GB on an empty stream.
	lying := append([]byte{}, art[:8]...)
	lying = binary.LittleEndian.AppendUint32(lying, 1)
	lying = binary.LittleEndian.AppendUint32(lying, 5)
	lying = append(lying, "early"...)
	lying = binary.LittleEndian.AppendUint64(lying, 1<<30)
	f.Add(lying)
	// Flip a payload byte so the checksum must catch it.
	flipped := append([]byte{}, art...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, kind, _, err := LoadLineage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("LoadLineage returned nil predictor without error")
		}
		switch kind {
		case KindEarly, KindIntermediate, KindDeViSE:
		default:
			t.Fatalf("LoadLineage accepted unknown kind %q", kind)
		}
	})
}

// FuzzEarlyModelGobDecode hits the gob layer under the artifact framing: a
// mutated payload that clears the checksum must still decode cleanly or
// error — the shape invariants (vectorizer/network width agreement) must
// hold on every accepted model.
func FuzzEarlyModelGobDecode(f *testing.F) {
	art, err := fuzzArtifact()
	if err != nil {
		f.Fatal(err)
	}
	// Extract the gob payload from the artifact framing: magic(8) +
	// version(4) + kindLen(4) + kind + payloadLen(8) ... payload ... crc(4).
	kindLen := binary.LittleEndian.Uint32(art[12:16])
	payloadStart := 16 + int(kindLen) + 8
	payload := art[payloadStart : len(art)-4]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &EarlyModel{}
		if err := m.GobDecode(data); err != nil {
			return
		}
		if m.vz == nil || m.net == nil {
			t.Fatal("GobDecode accepted a model with missing stages")
		}
		if m.net.InDim() != m.vz.Width() {
			t.Fatalf("GobDecode accepted width mismatch: net %d, vectorizer %d",
				m.net.InDim(), m.vz.Width())
		}
	})
}
