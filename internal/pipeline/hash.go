package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

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
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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
// outlives the NF objects it was built from.
func nfFingerprint(f nf.NF) string {
	ctl, par := "", ""
	if b := f.Block(); b != nil {
		ctl = p4.EmitControl(b)
	}
	if g := f.Parser(); g != nil {
		par = p4.EmitParser(f.Name(), g)
	}
	return hashOf(f.Name(), ctl, par)
}

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
