package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dejavu/internal/analysis"
)

// The golden tests drive the real loader over the fixture module in
// testdata/ (its own go.mod, so the fixtures never build with the main
// module) and compare every diagnostic against the `// want` comments
// seeded next to each violation. Each analyzer gets a violating and a
// conforming package; a diagnostic without a want, or a want without a
// diagnostic, fails the test.

// wantRe matches a seeded expectation: // want `regexp`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

var (
	fixOnce sync.Once
	fixRes  analysis.Result
	fixErr  error
)

// fixtures loads and analyzes the fixture module once per test binary.
func fixtures(t *testing.T) analysis.Result {
	t.Helper()
	fixOnce.Do(func() {
		prog, err := analysis.Load("testdata", "./...")
		if err != nil {
			fixErr = err
			return
		}
		fixRes, fixErr = analysis.RunPackages(prog, analysis.Analyzers())
	})
	if fixErr != nil {
		t.Fatalf("loading fixtures: %v", fixErr)
	}
	return fixRes
}

// want is one expectation read from a fixture file.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// scanWants collects the want comments of the named fixture dirs.
func scanWants(t *testing.T, dirs ...string) []*want {
	t.Helper()
	var wants []*want
	for _, dir := range dirs {
		abs, err := filepath.Abs(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(abs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(abs, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				m := wantRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern: %v", path, line, err)
				}
				wants = append(wants, &want{file: path, line: line, re: re})
			}
			f.Close()
		}
	}
	return wants
}

// checkAnalyzer matches one analyzer's diagnostics in the given
// fixture dirs against their want comments, both directions.
func checkAnalyzer(t *testing.T, name string, dirs ...string) {
	t.Helper()
	res := fixtures(t)
	wants := scanWants(t, dirs...)
	inDirs := func(file string) bool {
		for _, dir := range dirs {
			if filepath.Base(filepath.Dir(file)) == dir {
				return true
			}
		}
		return false
	}
	seeded := 0
	for _, d := range res.Diagnostics {
		if d.Analyzer != name || !inDirs(d.Pos.Filename) {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				seeded++
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: seeded violation not reported (want %q)", w.file, w.line, w.re)
		}
	}
	if seeded == 0 {
		t.Errorf("%s: no seeded violation was reported at all", name)
	}
}

func TestHotpathGolden(t *testing.T)  { checkAnalyzer(t, "hotpath", "hotbad", "hotdep", "hotok") }
func TestSnapshotGolden(t *testing.T) { checkAnalyzer(t, "snapshot", "snapbad", "snapok") }
func TestPoolsafeGolden(t *testing.T) { checkAnalyzer(t, "poolsafe", "poolbad", "poolok") }
func TestDetrandGolden(t *testing.T)  { checkAnalyzer(t, "detrand", "fault", "traffic", "engine") }

// TestWaiverAccounting proves //dv:allow suppressions are counted, not
// silently dropped: the hotok fixture carries exactly one waiver.
func TestWaiverAccounting(t *testing.T) {
	res := fixtures(t)
	if res.Waived == 0 {
		t.Fatalf("fixture run recorded no waived findings; hotok's //dv:allow should count")
	}
}

var (
	realOnce sync.Once
	realRes  analysis.Result
	realErr  error
)

// realTree loads and analyzes the repository's own module once.
func realTree(t *testing.T) analysis.Result {
	t.Helper()
	realOnce.Do(func() {
		prog, err := analysis.Load("../..", "./...")
		if err != nil {
			realErr = err
			return
		}
		realRes, realErr = analysis.RunPackages(prog, analysis.Analyzers())
	})
	if realErr != nil {
		t.Fatalf("loading module: %v", realErr)
	}
	return realRes
}

// TestRealTreeClean is the committed-tree gate: the shipped sources
// must produce zero findings (waivers are fine; they carry reasons).
func TestRealTreeClean(t *testing.T) {
	res := realTree(t)
	if len(res.Diagnostics) > 0 {
		var sb strings.Builder
		for _, d := range res.Diagnostics {
			fmt.Fprintf(&sb, "\n  %s", d)
		}
		t.Errorf("committed tree has %d dvvet finding(s):%s", len(res.Diagnostics), sb.String())
	}
}

// TestHotpathAnnotationCoversInjectQuiet pins the annotation contract
// to the real datapath: everything the quiet entry points statically
// reach inside the module must be in the checked call graph — the one
// injection core they share (which traced Inject and InjectBurst run
// too) and everything under it, including functions whose call sites
// carry waivers (a waiver accepts effects, it does not remove the callee
// from the surface).
func TestHotpathAnnotationCoversInjectQuiet(t *testing.T) {
	res := realTree(t)
	for _, root := range []string{
		"dejavu/internal/asic.(Switch).InjectQuiet",
		"dejavu/internal/asic.(Switch).InjectQuietBatch",
	} {
		cov := analysis.CoverageFrom(res.Facts, root)
		covered := make(map[string]bool, len(cov))
		for _, k := range cov {
			covered[k] = true
		}
		for _, fn := range []string{
			root,
			"dejavu/internal/asic.(Switch).inject",
			"dejavu/internal/asic.(Trace).resetQuiet",
			"dejavu/internal/asic.(Switch).admit",
			"dejavu/internal/asic.(Switch).run",
			"dejavu/internal/asic.(Switch).emit",
			"dejavu/internal/asic.(Switch).toCPU",
			"dejavu/internal/asic.(Switch).queuePunts",
			"dejavu/internal/asic.(Switch).Stats",
			"dejavu/internal/asic.(portDelta).flush",
		} {
			if !covered[fn] {
				t.Errorf("hot-path call graph from %s does not reach %s", root, fn)
			}
		}
		if len(cov) < 8 {
			t.Errorf("suspiciously small call graph from %s: %v", root, cov)
		}
	}
}

// TestHotpathAnnotationCoversChain pins the contract to the composed
// datapath: the graph rooted at the pipelet program — the StageFunc
// asic.run calls through a func value, hence a root of its own —
// reaches every scenario NF through the nf.NF interface (and NAT,
// which is off the §5 chain: interface following reaches every
// implementation), and through them the match engines, the flow hash
// and the compiled dispatch tables.
func TestHotpathAnnotationCoversChain(t *testing.T) {
	res := realTree(t)
	const root = "dejavu/internal/compose.(pipelet).run"
	covered := make(map[string]bool)
	for _, k := range analysis.CoverageFrom(res.Facts, root) {
		covered[k] = true
	}
	for _, fn := range []string{
		root,
		"dejavu/internal/compose.applyBranching",
		"dejavu/internal/compose.checkSFCFlags",
		// The chain is resolved once per traversal and what it resolved
		// handed to check_nextNF, the path counter and the branching.
		"dejavu/internal/compose.(Runtime).chain",
		"dejavu/internal/route.(Branching).ChainIndex",
		"dejavu/internal/route.(Branching).DecideAt",
		"dejavu/internal/nf.(Classifier).Execute",
		"dejavu/internal/nf.(Firewall).Execute",
		"dejavu/internal/nf.(VGW).Execute",
		"dejavu/internal/nf.(LoadBalancer).Execute",
		"dejavu/internal/nf.(Router).Execute",
		"dejavu/internal/nf.(NAT).Execute",
		"dejavu/internal/mau.(ExactTable).Lookup",
		"dejavu/internal/mau.(ExactTable).Has",
		"dejavu/internal/mau.(Hit).Param",
		"dejavu/internal/mau.(LPM32).Lookup",
		"dejavu/internal/mau.(TernaryTable).Lookup",
		"dejavu/internal/packet.(Parsed).FlowWords",
		"dejavu/internal/packet.(IPv4).FlowWords",
		"dejavu/internal/packet.FlowHash",
		// The word-wide kernels under them, and the burst tally.
		"dejavu/internal/mau.(exactSlot).load",
		"dejavu/internal/mau.matchCtrl",
		"dejavu/internal/mau.matchEmpty",
		"dejavu/internal/mau.(bitmap256).rank",
		"dejavu/internal/mau.(TernaryTable).LookupWords",
		"dejavu/internal/mau.(TernaryTable).match",
		"dejavu/internal/mau.packWords",
		"dejavu/internal/packet.crcWord",
		"dejavu/internal/asic.(Ctx).Tally",
		"dejavu/internal/compose.(Runtime).countPath",
	} {
		if !covered[fn] {
			t.Errorf("hot-path call graph from %s does not reach %s", root, fn)
		}
	}
}

// TestRealTreeHotAnnotations pins the annotation set itself: the
// functions the performance contract names must carry //dv:hotpath.
func TestRealTreeHotAnnotations(t *testing.T) {
	res := realTree(t)
	hot := make(map[string]bool)
	for _, k := range analysis.HotFuncs(res.Facts) {
		hot[k] = true
	}
	for _, fn := range []string{
		"dejavu/internal/asic.(Switch).InjectQuiet",
		"dejavu/internal/asic.(Switch).run",
		"dejavu/internal/packet.(Parsed).CopyFrom",
		"dejavu/internal/pktgen.(Generator).PacketInto",
		"dejavu/internal/telemetry.(DatapathShard).Flush",
		"dejavu/internal/telemetry.(DatapathShard).PacketDone",
		"dejavu/internal/telemetry.(Histogram).Observe",
		"dejavu/internal/compose.(pipelet).run",
		"dejavu/internal/route.(Branching).ChainIndex",
		"dejavu/internal/route.(Branching).Decide",
		"dejavu/internal/route.(Branching).DecideAt",
		"dejavu/internal/compose.(Runtime).chain",
		"dejavu/internal/compose.(Runtime).countPath",
		"dejavu/internal/asic.(Trace).resetQuiet",
		"dejavu/internal/mau.(ExactTable).Lookup",
		"dejavu/internal/mau.(ExactTable).Has",
		"dejavu/internal/mau.(exactSlot).load",
		"dejavu/internal/mau.matchCtrl",
		"dejavu/internal/mau.matchEmpty",
		"dejavu/internal/mau.(Hit).Param",
		"dejavu/internal/mau.(LPM32).Lookup",
		"dejavu/internal/mau.(TernaryTable).Lookup",
		"dejavu/internal/mau.(TernaryTable).LookupWords",
		"dejavu/internal/packet.(FiveTuple).Hash",
		"dejavu/internal/packet.(Parsed).FlowWords",
		"dejavu/internal/packet.(IPv4).FlowWords",
		"dejavu/internal/packet.FlowHash",
		"dejavu/internal/asic.(Switch).InjectQuietBatch",
		"dejavu/internal/asic.(Ctx).Tally",
		// Reached through asic.TallySink, an interface the graph does not
		// follow into compose: a root of its own.
		"dejavu/internal/compose.(Runtime).FlushTally",
		"dejavu/internal/nf.(Classifier).Execute",
		"dejavu/internal/nf.(Firewall).Execute",
		"dejavu/internal/nf.(VGW).Execute",
		"dejavu/internal/nf.(LoadBalancer).Execute",
		"dejavu/internal/nf.(Router).Execute",
	} {
		if !hot[fn] {
			t.Errorf("%s is not annotated //dv:hotpath", fn)
		}
	}
}
