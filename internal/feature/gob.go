package feature

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
)

// Gob support for fitted vectorizers, so a trained model artifact can carry
// the exact encoder it was trained with (internal/fusion packages the pair
// together). The wire form stores each vocabulary as its words in slot
// order and rebuilds the index maps and the dense-row layout on decode, so
// a decoded vectorizer produces bit-identical rows to the encoded one.

// vocabWire is one vocabulary's words in slot order.
type vocabWire struct {
	Name  string
	Words []string
}

// statsWire is one numeric feature's standardization parameters.
type statsWire struct {
	Name      string
	Mean, Std float64
}

// vectorizerWireV1 is version 1 of the Vectorizer wire form. The schema
// rides along as its JSON encoding (the schema already defines a stable
// JSON form for the featurestore); vocabularies and stats are sorted by
// feature name so encoding is deterministic.
type vectorizerWireV1 struct {
	Version    int
	SchemaJSON []byte
	Vocabs     []vocabWire
	Stats      []statsWire
	MaxVoc     int
}

const vectorizerWireVersion = 1

// GobEncode implements gob.GobEncoder.
func (vz *Vectorizer) GobEncode() ([]byte, error) {
	schemaJSON, err := json.Marshal(vz.schema)
	if err != nil {
		return nil, fmt.Errorf("feature: encode vectorizer schema: %w", err)
	}
	w := vectorizerWireV1{
		Version:    vectorizerWireVersion,
		SchemaJSON: schemaJSON,
		MaxVoc:     vz.maxVoc,
	}
	// Walk the schema in order so the wire form is deterministic.
	for i := 0; i < vz.schema.Len(); i++ {
		d := vz.schema.Def(i)
		switch d.Kind {
		case Categorical:
			w.Vocabs = append(w.Vocabs, vocabWire{Name: d.Name, Words: vz.vocabs[d.Name].words})
		case Numeric:
			st := vz.stats[d.Name]
			w.Stats = append(w.Stats, statsWire{Name: d.Name, Mean: st.mean, Std: st.std})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (vz *Vectorizer) GobDecode(data []byte) error {
	var w vectorizerWireV1
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("feature: decode vectorizer: %w", err)
	}
	if w.Version != vectorizerWireVersion {
		return fmt.Errorf("feature: vectorizer wire version %d, want %d", w.Version, vectorizerWireVersion)
	}
	schema := &Schema{}
	if err := json.Unmarshal(w.SchemaJSON, schema); err != nil {
		return err
	}
	words := make(map[string][]string, len(w.Vocabs))
	for _, vw := range w.Vocabs {
		words[vw.Name] = vw.Words
	}
	decoded := &Vectorizer{
		schema: schema,
		vocabs: make(map[string]*Vocabulary, len(w.Vocabs)),
		stats:  make(map[string]numericStats, len(w.Stats)),
		maxVoc: w.MaxVoc,
	}
	for _, sw := range w.Stats {
		decoded.stats[sw.Name] = numericStats{mean: sw.Mean, std: sw.Std}
	}
	// Every categorical / numeric feature must have brought its fitted
	// state, or Transform would silently mis-encode.
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		switch d.Kind {
		case Categorical:
			if _, ok := words[d.Name]; !ok {
				return fmt.Errorf("feature: decode vectorizer: no vocabulary for %q", d.Name)
			}
		case Numeric:
			if _, ok := decoded.stats[d.Name]; !ok {
				return fmt.Errorf("feature: decode vectorizer: no stats for %q", d.Name)
			}
		}
	}
	// Index the schema's vocabularies only now that the payload has passed
	// every check, since indexing interns each word: a rejected artifact
	// must not grow the process-wide intern table. The index is rebuilt
	// from the slot order rather than via NewVocabulary, so slot positions
	// survive the round trip exactly.
	for i := 0; i < schema.Len(); i++ {
		if d := schema.Def(i); d.Kind == Categorical {
			decoded.vocabs[d.Name] = vocabulary(words[d.Name])
		}
	}
	decoded.layout()
	*vz = *decoded
	return nil
}
