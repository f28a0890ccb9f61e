package feature

import (
	"encoding/json"
	"fmt"
)

// jsonDef is the wire form of a Def.
type jsonDef struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Set      string `json:"set,omitempty"`
	Servable bool   `json:"servable"`
	Dim      int    `json:"dim,omitempty"`
}

// MarshalJSON encodes the schema as an ordered list of feature definitions.
func (s *Schema) MarshalJSON() ([]byte, error) {
	out := make([]jsonDef, s.Len())
	for i, d := range s.defs {
		out[i] = jsonDef{Name: d.Name, Kind: d.Kind.String(), Set: d.Set, Servable: d.Servable, Dim: d.Dim}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a schema previously encoded with MarshalJSON.
func (s *Schema) UnmarshalJSON(data []byte) error {
	var defs []jsonDef
	if err := json.Unmarshal(data, &defs); err != nil {
		return fmt.Errorf("feature: decode schema: %w", err)
	}
	decoded := Schema{index: make(map[string]int, len(defs))}
	for _, jd := range defs {
		var kind Kind
		switch jd.Kind {
		case "categorical":
			kind = Categorical
		case "numeric":
			kind = Numeric
		case "embedding":
			kind = Embedding
		default:
			return fmt.Errorf("feature: unknown kind %q for %q", jd.Kind, jd.Name)
		}
		if err := decoded.add(Def{Name: jd.Name, Kind: kind, Set: jd.Set, Servable: jd.Servable, Dim: jd.Dim}); err != nil {
			return err
		}
	}
	*s = decoded
	return nil
}
