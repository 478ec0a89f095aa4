package config

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzConfigParse feeds arbitrary bytes to the deployment-file parser,
// seeded with the committed configs and the example intent: every input
// is either refused with an error or built into a configuration with at
// least one chain, and none panics.
func FuzzConfigParse(f *testing.F) {
	seeds, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, "../../examples/intent/intent.json") {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cfg == nil || len(cfg.Chains) == 0 {
			t.Fatalf("accepted without an error but built %+v", cfg)
		}
	})
}
