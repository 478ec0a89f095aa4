package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/route"
)

// Content hashing. Every stage artifact is keyed by a hash over the
// canonical rendering of exactly the inputs that determine its bytes —
// no more (or rebuilds would be spurious), no less (or stale artifacts
// would be served). The canonicalizers below are therefore
// load-bearing: anything a stage's output can observe must appear in
// its stage hash.

// hashOf fingerprints an ordered list of content parts. Parts are
// length-prefixed so concatenation cannot alias two distinct inputs.
func hashOf(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 8
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = strconv.AppendInt(buf, int64(len(p)), 10)
		buf = append(buf, ':')
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	var out [16]byte
	hex.Encode(out[:], sum[:8])
	return string(out[:])
}

// profSig captures the profile properties composition and allocation
// can observe: identity, pipeline count and per-pipelet stage budget.
func profSig(prof asic.Profile) string {
	return fmt.Sprintf("%s|%d|%d", prof.Name, prof.Pipelines, prof.StagesPerPipelet)
}

// canonChain renders one chain's build-relevant content.
func canonChain(ch route.Chain) string {
	return fmt.Sprintf("%d|%g|%d|%d|%s",
		ch.PathID, ch.Weight, ch.ExitPipeline, ch.StaticExitPort,
		strings.Join(ch.NFs, ","))
}

// canonChains renders the chain set in declaration order (order is
// observable: traversal reports and parser merge follow it).
func canonChains(chains []route.Chain) string {
	parts := make([]string, len(chains))
	for i, ch := range chains {
		parts[i] = canonChain(ch)
	}
	return strings.Join(parts, ";")
}

// canonPlacement renders a placement as sorted assignment, mode and
// remote lists, so map iteration order cannot perturb the hash. A
// remote NF renders with its wire port: moving a wire moves the hash.
func canonPlacement(p *route.Placement) string {
	assigns := make([]string, 0, len(p.NF))
	for name, pl := range p.NF {
		assigns = append(assigns, name+"="+pl.String())
	}
	sort.Strings(assigns)
	modes := make([]string, 0, len(p.Mode))
	for pl, m := range p.Mode {
		modes = append(modes, pl.String()+"="+m.String())
	}
	sort.Strings(modes)
	remotes := make([]string, 0, len(p.Remote))
	for name, port := range p.Remote {
		remotes = append(remotes, fmt.Sprintf("%s>%d", name, port))
	}
	sort.Strings(remotes)
	return strings.Join(assigns, ",") + "#" + strings.Join(modes, ",") + "#" + strings.Join(remotes, ",")
}

// canonPin renders an optimizer pin map.
func canonPin(pin map[string]asic.PipeletID) string {
	parts := make([]string, 0, len(pin))
	for name, pl := range pin {
		parts = append(parts, name+"="+pl.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// nfFingerprint is the content identity of one NF implementation as
// the build observes it: its name plus its emitted control block and
// parser fragment. The behavioural closure (Execute) is opaque Go; the
// name stands in for it, which is sound because the cache never
// outlives the NF objects it was built from. An NF whose block and
// parser are both shared, frozen values is hashed once per process.
func nfFingerprint(f nf.NF) string {
	name, b, g := f.Name(), f.Block(), f.Parser()
	shared := b != nil && b.Frozen() && g != nil && g.Frozen()
	if v, ok := sharedFingerprints.Load(sharedProgram{b, g}); shared && ok && v.([2]string)[0] == name {
		return v.([2]string)[1]
	}
	ctl, par := "", ""
	if b != nil {
		ctl = p4.EmitControl(b)
	}
	if g != nil {
		par = p4.EmitParser(name, g)
	}
	fp := hashOf(name, ctl, par)
	if shared {
		sharedFingerprints.Store(sharedProgram{b, g}, [2]string{name, fp})
	}
	return fp
}

// sharedProgram is an NF's block and parser.
type sharedProgram struct {
	block  *p4.ControlBlock
	parser *p4.ParserGraph
}

// sharedFingerprints maps each shared program nfFingerprint has hashed
// to the NF name it hashed it under and the fingerprint. It is keyed by
// the frozen values themselves, so it holds one entry per NF variant.
var sharedFingerprints sync.Map

// chainEntriesOf counts (pathID, serviceIndex) pairs across the chain
// set — the only property of the chains a pipelet's control block
// depends on (framework table sizing), mirroring the composer's own
// accounting.
func chainEntriesOf(chains []route.Chain) int {
	n := 0
	for _, ch := range chains {
		n += len(ch.NFs) + 1
	}
	if n == 0 {
		n = 1
	}
	return n
}

// itoa keeps hash-part call sites tidy.
func itoa(n int) string { return strconv.Itoa(n) }
