package obs

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// goldenSchemaJSON is the checked-in golden trace schema, embedded so the
// binaries and the tests validate traces against one copy without a repo
// checkout.
//
//go:embed testdata/trace_schema.json
var goldenSchemaJSON []byte

// GoldenSchema returns the golden trace schema every JSONL trace the
// binaries emit must satisfy.
func GoldenSchema() (*Schema, error) {
	return LoadSchema(bytes.NewReader(goldenSchemaJSON))
}

// Schema describes the JSONL trace format: the keys every event must carry
// and, per kind, the keys an event may carry. The checked-in golden copy
// lives at internal/obs/testdata/trace_schema.json; CI validates generated
// traces against it so the wire format cannot drift silently.
type Schema struct {
	// Required keys every event must have regardless of kind.
	Required []string `json:"required"`
	// Kinds maps each event kind to the full set of keys it may emit.
	Kinds map[string][]string `json:"kinds"`
}

// LoadSchema decodes a schema from r.
func LoadSchema(r io.Reader) (*Schema, error) {
	var s Schema
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace schema: %w", err)
	}
	if len(s.Required) == 0 || len(s.Kinds) == 0 {
		return nil, fmt.Errorf("trace schema: empty required/kinds")
	}
	return &s, nil
}

// ValidateEvent checks one decoded event object against the schema.
func (s *Schema) ValidateEvent(obj map[string]any) error {
	kindVal, ok := obj["kind"].(string)
	if !ok {
		return fmt.Errorf("event has no string %q key", "kind")
	}
	allowed, ok := s.Kinds[kindVal]
	if !ok {
		return fmt.Errorf("unknown event kind %q", kindVal)
	}
	for _, req := range s.Required {
		if _, ok := obj[req]; !ok {
			return fmt.Errorf("kind %q missing required key %q", kindVal, req)
		}
	}
	for k := range obj {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("kind %q carries unexpected key %q", kindVal, k)
		}
	}
	return nil
}

// ValidateJSONL reads a JSONL trace from r, validates every event against
// the schema, and returns per-kind event counts. The first invalid line
// fails the whole trace.
func (s *Schema) ValidateJSONL(r io.Reader) (map[string]int, error) {
	counts := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			return counts, fmt.Errorf("line %d: %w", line, err)
		}
		if err := s.ValidateEvent(obj); err != nil {
			return counts, fmt.Errorf("line %d: %w", line, err)
		}
		counts[obj["kind"].(string)]++
	}
	if err := sc.Err(); err != nil {
		return counts, err
	}
	return counts, nil
}
