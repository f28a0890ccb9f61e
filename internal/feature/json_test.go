package feature

import (
	"encoding/json"
	"testing"
)

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := testSchema(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got.Def(i) != s.Def(i) {
			t.Errorf("def %d = %+v, want %+v", i, got.Def(i), s.Def(i))
		}
	}
}

func TestSchemaJSONRejectsBadKind(t *testing.T) {
	var s Schema
	if err := json.Unmarshal([]byte(`[{"name":"x","kind":"weird"}]`), &s); err == nil {
		t.Error("expected unknown-kind error")
	}
	if err := json.Unmarshal([]byte(`not json`), &s); err == nil {
		t.Error("expected syntax error")
	}
	if err := json.Unmarshal([]byte(`[{"name":"a","kind":"numeric"},{"name":"a","kind":"numeric"}]`), &s); err == nil {
		t.Error("expected duplicate-name error")
	}
}
