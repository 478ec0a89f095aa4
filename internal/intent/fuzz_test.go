package intent

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIntentParse feeds arbitrary bytes to the intent parser, seeded
// with the example intent and every committed config, each as written
// and with its version key cut (a document every command must refuse),
// and with fabric stage demands below one stage. An input is either
// refused with an error, or it is a document that validates, builds (or
// refuses to) without panicking, and renders to JSON that parses back to
// the same Hash — the no-op proof `dejavu apply` reports rests on that
// hash.
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
		f.Add(bytes.Replace(b, []byte(`"version": 1,`), nil, 1))
	}
	for _, demand := range []string{"0", "-3"} {
		f.Add([]byte(`{"version": 1, "chains": [{"path_id": 1, "nfs": ["router"]}],
		  "router": {"routes": [{"prefix": "0.0.0.0/0", "port": 1}]},
		  "fabric": {"switches": 2, "stage_demand": {"router": ` + demand + `}}}`))
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
