package model

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	e := buildExec(5, 2)
	e.Decisions[1] = Decision{Value: 5, Round: 2}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the generic decoder to verify well-formed JSON.
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	rounds, ok := decoded["rounds"].([]interface{})
	if !ok || len(rounds) != 2 {
		t.Fatalf("rounds = %v", decoded["rounds"])
	}
	decisions, ok := decoded["decisions"].([]interface{})
	if !ok || len(decisions) != 1 {
		t.Fatalf("decisions = %v", decoded["decisions"])
	}
	s := buf.String()
	for _, want := range []string{`"kind": "est"`, `"cd": "null"`, `"cm": "active"`, `"value": 5`} {
		if !strings.Contains(s, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	e := buildExec(9, 3)
	var a, b bytes.Buffer
	if err := e.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSON export not deterministic")
	}
}

func TestWriteJSONCrashedView(t *testing.T) {
	e := buildExec(1, 1, func(v [][]View) { v[0][1].Crashed = true })
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"crashed": true`) {
		t.Error("crashed view not exported")
	}
}
