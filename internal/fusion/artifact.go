package fusion

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"crossmodal/internal/feature"
	"crossmodal/internal/model"
)

// Model artifacts: a trained fusion predictor serialized as a deployable
// file, the way featurestore rows already persist feature vectors. The
// paper's §2.4 deployment stage pushes the fused model behind serving
// infrastructure independent of the training pipeline (the same packaging
// step Snorkel DryBell argues realizes the payoff of weak supervision);
// internal/serve loads these artifacts and hot-swaps them under live
// traffic.
//
// File layout (all integers little-endian):
//
//	magic   [8]byte  "XMODART1"
//	version uint32   artifact format version (1)
//	kind    uint32   length n, then n bytes ("early" | "intermediate" | "devise")
//	payload uint64   length m, then m bytes of gob-encoded model
//	crc     uint32   IEEE CRC-32 of the payload bytes
//
// The checksum guards against truncated or bit-rotted files; the version
// and per-type gob wire versions (see model/serialize.go, feature/gob.go)
// guard against format skew. LoadLineage rejects any mismatch instead of
// deserializing garbage into a serving model.

// Artifact kinds, also reported by serve's admin endpoints.
const (
	KindEarly        = "early"
	KindIntermediate = "intermediate"
	KindDeViSE       = "devise"
)

var artifactMagic = [8]byte{'X', 'M', 'O', 'D', 'A', 'R', 'T', '1'}

const artifactVersion = 1

// maxArtifactSection caps the payload length LoadLineage will read, and
// maxKindLen the kind string, so a corrupt header cannot trigger an absurd
// allocation.
const (
	maxArtifactSection = 1 << 30
	maxKindLen         = 64
)

// earlyWire is the gob form of EarlyModel. Prec is the precision stamp the
// model was published with; it round-trips but selects nothing, and gob
// leaves absent fields zero, so artifacts written without one decode as
// Float64.
type earlyWire struct {
	VZ      *feature.Vectorizer
	Net     *model.MLP
	Workers int
	Prec    model.Precision
}

// GobEncode implements gob.GobEncoder.
func (m *EarlyModel) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(earlyWire{VZ: m.vz, Net: m.net, Workers: m.workers, Prec: m.prec})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *EarlyModel) GobDecode(data []byte) error {
	var w earlyWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("fusion: decode early model: %w", err)
	}
	if w.VZ == nil || w.Net == nil {
		return fmt.Errorf("fusion: decode early model: missing vectorizer or network")
	}
	if w.Net.InDim() != w.VZ.Width() {
		return fmt.Errorf("fusion: decode early model: network input %d vs vectorizer width %d",
			w.Net.InDim(), w.VZ.Width())
	}
	if !w.Prec.Valid() {
		return fmt.Errorf("fusion: decode early model: unknown serve precision %d", int(w.Prec))
	}
	m.vz, m.net, m.workers, m.prec = w.VZ, w.Net, w.Workers, w.Prec
	return nil
}

// intermediateWire is the gob form of IntermediateModel.
type intermediateWire struct {
	VZ      *feature.Vectorizer
	Parts   []*model.MLP
	Final   *model.MLP
	Workers int
}

// GobEncode implements gob.GobEncoder.
func (m *IntermediateModel) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(intermediateWire{VZ: m.vz, Parts: m.parts, Final: m.final, Workers: m.workers})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *IntermediateModel) GobDecode(data []byte) error {
	var w intermediateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("fusion: decode intermediate model: %w", err)
	}
	if w.VZ == nil || w.Final == nil || len(w.Parts) == 0 {
		return fmt.Errorf("fusion: decode intermediate model: missing stage")
	}
	hidden := 0
	for _, part := range w.Parts {
		if part.InDim() != w.VZ.Width() {
			return fmt.Errorf("fusion: decode intermediate model: part input %d vs vectorizer width %d",
				part.InDim(), w.VZ.Width())
		}
		hidden += part.HiddenDim()
	}
	if w.Final.InDim() != hidden {
		return fmt.Errorf("fusion: decode intermediate model: final input %d vs concat width %d",
			w.Final.InDim(), hidden)
	}
	m.vz, m.parts, m.final, m.workers = w.VZ, w.Parts, w.Final, w.Workers
	return nil
}

// deviseWire is the gob form of DeViSEModel.
type deviseWire struct {
	A       *EarlyModel
	B       *EarlyModel
	Proj    *model.Projection
	Workers int
}

// GobEncode implements gob.GobEncoder.
func (m *DeViSEModel) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(deviseWire{A: m.a, B: m.b, Proj: m.proj, Workers: m.workers})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *DeViSEModel) GobDecode(data []byte) error {
	var w deviseWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("fusion: decode devise model: %w", err)
	}
	if w.A == nil || w.B == nil || w.Proj == nil {
		return fmt.Errorf("fusion: decode devise model: missing stage")
	}
	m.a, m.b, m.proj, m.workers = w.A, w.B, w.Proj, w.Workers
	return nil
}

// Kind reports the artifact kind string of a predictor, or "" for foreign
// Predictor implementations.
func Kind(p Predictor) string {
	switch p.(type) {
	case *EarlyModel:
		return KindEarly
	case *IntermediateModel:
		return KindIntermediate
	case *DeViSEModel:
		return KindDeViSE
	default:
		return ""
	}
}

// SaveFile writes p to path atomically (see SaveFileLineage).
func SaveFile(path string, p Predictor) error { return SaveFileLineage(path, p, nil) }
