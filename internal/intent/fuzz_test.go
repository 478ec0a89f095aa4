package intent

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIntentParse feeds arbitrary bytes to the intent parser, seeded
// with the example intent and with every committed config, bare and
// stamped with the schema version. An input is either refused with an
// error, or it is a document that validates, builds (or refuses to)
// without panicking, and renders to JSON that parses back to the same
// Hash — the no-op proof `dejavu apply` reports rests on that hash.
func FuzzIntentParse(f *testing.F) {
	configs, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(configs, "../../examples/intent/intent.json") {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if b, ok := bytes.CutPrefix(b, []byte("{")); ok {
			f.Add(append([]byte(`{"version": 1,`), b...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("parsed document fails Validate: %v", err)
		}
		_, _ = doc.BuildConfig() // may refuse; must not panic
		rendered, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(rendered))
		if err != nil {
			t.Fatalf("rendered document does not parse: %v\n%s", err, rendered)
		}
		if again.Hash() != doc.Hash() {
			t.Fatalf("hash changed across render and parse:\n%s", rendered)
		}
	})
}
