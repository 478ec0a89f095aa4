package pipeline

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dejavu/internal/compiler"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
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

// freshNF hands out unshared copies of an NF's block and parser: what
// the NF's program was before it was shared and frozen.
type freshNF struct {
	nf.NF
	name string
}

func (f freshNF) Name() string            { return f.name }
func (f freshNF) Block() *p4.ControlBlock { return f.NF.Block().Clone() }
func (f freshNF) Parser() *p4.ParserGraph { return f.NF.Parser().Clone() }

// renamedNF is an NF under another name, with its shared program.
type renamedNF struct {
	nf.NF
	name string
}

func (f renamedNF) Name() string { return f.name }

// TestSharedBlockFactsMatchFresh: for every shared NF block (the seven
// NFs and the firewall's second variant), the facts derived from it once
// per process — the NF's fingerprint, the block's MinStages and its
// emitted text — equal those of a freshly built copy, on the first and
// on later reads, and under another NF name too.
func TestSharedBlockFactsMatchFresh(t *testing.T) {
	for _, f := range append(sevenNFs(), nf.NewFirewall(false)) {
		shared := f.Block()
		if !shared.Frozen() {
			t.Fatalf("%s: block is not shared", f.Name())
		}
		clone := shared.Clone()
		if got, want := p4.EmitControl(shared), p4.EmitControl(clone); got != want {
			t.Errorf("%s: shared block emits\n%s\na fresh copy emits\n%s", f.Name(), got, want)
		}
		want, err := compiler.MinStages(clone)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if got, err := compiler.MinStages(shared); err != nil || got != want {
				t.Errorf("%s: MinStages read %d = %d, %v; a fresh copy needs %d", f.Name(), i, got, err, want)
			}
		}
		for _, name := range []string{f.Name(), "other", f.Name()} {
			want := nfFingerprint(freshNF{NF: f, name: name})
			for i := 0; i < 2; i++ {
				if got := nfFingerprint(renamedNF{NF: f, name: name}); got != want {
					t.Errorf("%s as %q: fingerprint read %d = %s, a fresh copy's %s", f.Name(), name, i, got, want)
				}
			}
		}
	}
}

// TestConcurrentColdBuildsAgree: eight cold deploy builds (a fresh §5
// scenario each, staged as core.Deploy stages it) running at once read
// the same shared blocks and fill the same process-wide memos, and
// agree on every NF fingerprint and every stage hash. Run it under the
// race detector.
func TestConcurrentColdBuildsAgree(t *testing.T) {
	const n = 8
	fps := make([][]string, n)
	hashes := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := scenarioInputs(t)
			for _, f := range in.NFs {
				fps[i] = append(fps[i], f.Name()+" "+nfFingerprint(f))
			}
			cur := Installed{Cache: NewCache()}
			next, _, err := cur.Stage(in)
			if err != nil {
				errs[i] = err
				return
			}
			for _, s := range next.Res.Info.Stages {
				hashes[i] = append(hashes[i], s.Name+" "+s.Hash)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(fps[i], fps[0]) || !reflect.DeepEqual(hashes[i], hashes[0]) {
			t.Errorf("build %d: fingerprints %v and stage hashes %v; build 0: %v and %v", i, fps[i], hashes[i], fps[0], hashes[0])
		}
	}
	if len(hashes[0]) == 0 {
		t.Fatal("no stage hashes recorded")
	}
}
