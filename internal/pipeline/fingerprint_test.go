package pipeline

import (
	"flag"
	"os"
	"strings"
	"testing"

	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the fingerprint golden (testdata) from this build")

// sevenNFs returns the five §5 scenario NFs plus the two extension NFs
// the public API ships, NAT and Mirror.
func sevenNFs() nf.List {
	s := scenario.MustNew()
	return append(append(nf.List(nil), s.NFs...), nf.NewNAT(packet.IP4{192, 0, 2, 1}, 4096), nf.NewMirror())
}

// TestNFFingerprintGolden pins nfFingerprint for all seven NFs to
// testdata/nf_fingerprints.txt. Every stage hash and cache key is built
// on these values, so a change to how an NF program is emitted or
// hashed shows here by name. A change meant to move them rewrites the
// file with `go test ./internal/pipeline -run TestNFFingerprintGolden
// -update` and says why.
func TestNFFingerprintGolden(t *testing.T) {
	var sb strings.Builder
	for _, f := range sevenNFs() {
		sb.WriteString(f.Name() + " " + nfFingerprint(f) + "\n")
	}
	const file = "testdata/nf_fingerprints.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("NF fingerprints differ from %s:\n%s", file, sb.String())
	}
}

// TestFingerprintReadsEachProgramOnce: fingerprinting an NF asks it for
// its control block once and its parser fragment once.
func TestFingerprintReadsEachProgramOnce(t *testing.T) {
	for _, f := range sevenNFs() {
		blocks, parsers := new(int), new(int)
		nfFingerprint(&countedNF{NF: f, blocks: blocks, parsers: parsers})
		if *blocks != 1 || *parsers != 1 {
			t.Errorf("%s: fingerprint read Block() %d and Parser() %d times, want 1 each", f.Name(), *blocks, *parsers)
		}
	}
}
