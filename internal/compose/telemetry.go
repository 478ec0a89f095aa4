package compose

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// counterShards is the number of cells a datapath counter is split
// over; injectors index it by their pooled context's shard
// (asic.Ctx.Shard), so concurrent injectors add to different cache
// lines. A single atomic word per counter would put every injector on
// one line for every NF hop of every packet.
const counterShards = 8

// pathsPerBlock is how many path counters share one block: a shard's
// row of a block is pathsPerBlock words, a whole pair of cache lines.
const pathsPerBlock = 16

// pathCounter is one path's packet counter: a slot in a block laid out
// shard-major like the NF counters, so a shard's cell shares its lines
// only with the same shard's cells of other paths. Reaching the cell
// through the block's slice costs a bounds check; a pointer to a
// per-path array of cells would cost a nil check that loads the
// array's first line — shard 0's cell — from every injector.
type pathCounter struct {
	block []atomic.Uint64 // counterShards rows of pathsPerBlock words
	slot  int
}

// add counts n events into the caller's cell.
func (c pathCounter) add(shard uint8, n uint64) {
	c.block[int(shard%counterShards)*pathsPerBlock+c.slot].Add(n)
}

// load sums all cells.
func (c pathCounter) load() uint64 {
	var sum uint64
	for s := 0; s < counterShards; s++ {
		sum += c.block[s*pathsPerBlock+c.slot].Load()
	}
	return sum
}

// Telemetry aggregates datapath counters the operator needs: how many
// packets each service path carried and how often each NF executed.
// Counting happens inside the behavioural pipelet programs, so the
// numbers reflect exactly what the composed datapath did (including
// recirculated passes, which execute NFs at most once each).
//
// The NF universe is fixed at composition time, so those counters are
// one preallocated block laid out shard-major — a shard's row holds
// all of its NF counters side by side, on lines no other shard writes —
// that the pipelet programs index directly. The
// path universe can GROW across live reconfigurations (AddChain): each
// path's counter is a slot taken once, in a block of the same layout
// (a new block when the last is full), and handed to every Runtime
// generation that declares the path, so the update path takes no lock
// and no count is lost when paths are added while traffic runs. Packets
// classified onto a path no chain declares (a classifier bug) fall
// back to a mutex-guarded overflow map on the cold path.
type Telemetry struct {
	nfNames []string       // sorted
	nfIdx   map[string]int // name -> index into a shard's row
	// nfExec[shard*nfStride+i] counts NF i's executions seen by a shard;
	// nfStride pads rows to whole pairs of cache lines.
	nfExec   []atomic.Uint64
	nfStride int

	mu         sync.Mutex             // guards paths and extraPaths
	paths      map[uint16]pathCounter // declared paths; counters are never replaced or removed
	lastBlock  []atomic.Uint64        // the newest block; full when len(paths) is a multiple of pathsPerBlock
	extraPaths map[uint16]uint64      // paths outside the declared chain set
}

func newTelemetry(nfNames []string, chains []route.Chain) *Telemetry {
	t := &Telemetry{
		nfNames: append([]string(nil), nfNames...),
		nfIdx:   make(map[string]int, len(nfNames)),
		paths:   make(map[uint16]pathCounter, len(chains)),
	}
	sort.Strings(t.nfNames)
	for i, n := range t.nfNames {
		t.nfIdx[n] = i
	}
	t.nfStride = (len(t.nfNames) + 15) &^ 15
	t.nfExec = make([]atomic.Uint64, counterShards*t.nfStride)
	for _, ch := range chains {
		t.pathCell(ch.PathID)
	}
	return t
}

// pathCell returns the counter of a declared path, declaring it first
// if needed. Counters of paths no longer declared are retained: they
// are totals since deployment.
func (t *Telemetry) pathCell(path uint16) pathCounter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.paths[path]
	if !ok {
		c.slot = len(t.paths) % pathsPerBlock
		if c.slot == 0 {
			t.lastBlock = make([]atomic.Uint64, counterShards*pathsPerBlock)
		}
		c.block = t.lastBlock
		t.paths[path] = c
	}
	return c
}

// nfIndex returns the dense counter index of an NF, or -1. Pipelet
// programs resolve indices once at composition time and count through
// addNF on the hot path.
func (t *Telemetry) nfIndex(name string) int {
	if i, ok := t.nfIdx[name]; ok {
		return i
	}
	return -1
}

// addNF records n executions of the NF at a precomputed index.
func (t *Telemetry) addNF(i int, shard uint8, n uint64) {
	if i >= 0 {
		t.nfExec[int(shard%counterShards)*t.nfStride+i].Add(n)
	}
}

// nfExecutions sums the shards' counts of the NF at index i.
func (t *Telemetry) nfExecutions(i int) uint64 {
	var sum uint64
	for s := 0; s < counterShards; s++ {
		sum += t.nfExec[s*t.nfStride+i].Load()
	}
	return sum
}

// countUndeclared records one packet classified onto a path outside
// the declared chain set.
func (t *Telemetry) countUndeclared(path uint16) {
	t.mu.Lock()
	if t.extraPaths == nil {
		t.extraPaths = make(map[uint16]uint64)
	}
	t.extraPaths[path]++
	t.mu.Unlock()
}

// NFExecutions returns the execution count of an NF.
func (t *Telemetry) NFExecutions(name string) uint64 {
	if i, ok := t.nfIdx[name]; ok {
		return t.nfExecutions(i)
	}
	return 0
}

// PathPackets returns the number of packets classified onto a path.
func (t *Telemetry) PathPackets(path uint16) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.paths[path]; ok {
		return c.load()
	}
	return t.extraPaths[path]
}

// Snapshot returns sorted copies of both counter sets.
func (t *Telemetry) Snapshot() (nfs []NFCount, paths []PathCount) {
	for i, n := range t.nfNames {
		nfs = append(nfs, NFCount{Name: n, Executions: t.nfExecutions(i)})
	}
	t.mu.Lock()
	for p, c := range t.paths {
		paths = append(paths, PathCount{Path: p, Packets: c.load()})
	}
	for p, c := range t.extraPaths {
		paths = append(paths, PathCount{Path: p, Packets: c})
	}
	t.mu.Unlock()
	sort.Slice(paths, func(i, j int) bool { return paths[i].Path < paths[j].Path })
	return nfs, paths
}

// Gather implements telemetry.Collector: per-NF execution and
// per-chain packet counters (see docs/OBSERVABILITY.md).
func (t *Telemetry) Gather() []telemetry.Family {
	nfs, paths := t.Snapshot()
	nfFam := telemetry.Family{
		Name: "dejavu_nf_executions_total",
		Help: "NF executions inside composed pipelet programs.",
		Kind: telemetry.KindCounter,
	}
	for _, n := range nfs {
		nfFam.Samples = append(nfFam.Samples, telemetry.Sample{
			Labels: `nf="` + n.Name + `"`,
			Value:  float64(n.Executions),
		})
	}
	pathFam := telemetry.Family{
		Name: "dejavu_chain_packets_total",
		Help: "Packets classified onto each service path.",
		Kind: telemetry.KindCounter,
	}
	for _, p := range paths {
		pathFam.Samples = append(pathFam.Samples, telemetry.Sample{
			Labels: `path="` + strconv.Itoa(int(p.Path)) + `"`,
			Value:  float64(p.Packets),
		})
	}
	return []telemetry.Family{nfFam, pathFam}
}

// NFCount is one NF's execution count.
type NFCount struct {
	Name       string
	Executions uint64
}

// PathCount is one service path's packet count.
type PathCount struct {
	Path    uint16
	Packets uint64
}
