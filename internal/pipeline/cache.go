package pipeline

import (
	"reflect"
	"sort"
	"strings"
	"sync"

	"dejavu/internal/compose"
	"dejavu/internal/nf"
)

// Cache holds the per-stage artifacts of previous builds, keyed by
// stage name and guarded by the stage's input hash: a lookup hits only
// when the stored artifact was produced from identical inputs. One
// Cache belongs to one deployment and lives across its
// reconfigurations; a nil *Cache is valid and turns every stage into a
// miss (a from-scratch build).
type Cache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	// prev is the composer of the last successful build. The next build
	// adopts its traffic-accumulated state (telemetry counters, postcard
	// cell) so cached pipelet programs — whose closures captured that
	// state — remain valid under the new generation.
	prev *compose.Composer
	// fps remembers the fingerprint of every NF object of the last
	// build's nf.List, so a build re-emits and hashes only the NFs it
	// has not seen. Sound for the reason nfFingerprint gives: the cache
	// never outlives its NF objects, and an NF's Block() and Parser()
	// are fixed programs that run-time table writes do not alter. Each
	// build replaces the map with one over its own list, so it is
	// bounded by that list and never pins a retired NF.
	fps map[nf.NF]string
}

type cacheEntry struct {
	hash string
	val  any
}

// NewCache creates an empty build cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]cacheEntry)}
}

// lookup returns the stage's artifact when its recorded input hash
// matches.
func (c *Cache) lookup(stage, hash string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[stage]
	if !ok || e.hash != hash {
		return nil, false
	}
	return e.val, true
}

// store records a stage's artifact under its input hash, replacing any
// previous generation.
func (c *Cache) store(stage, hash string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[stage] = cacheEntry{hash: hash, val: val}
}

// Clone copies the cache: entries and previous-generation pointer.
// Artifacts are immutable, so a shallow copy is safe; builds against
// the clone leave the original untouched (dry-run planning).
func (c *Cache) Clone() *Cache {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &Cache{
		entries: make(map[string]cacheEntry, len(c.entries)),
		prev:    c.prev,
		fps:     make(map[nf.NF]string, len(c.fps)),
	}
	for k, v := range c.entries {
		out.entries[k] = v
	}
	for k, v := range c.fps {
		out.fps[k] = v
	}
	return out
}

// fingerprints returns every NF's fingerprint by name plus a sorted
// combined rendering (the placement-optimizer hash input), computing
// only those the cache does not remember for the same NF object.
func (c *Cache) fingerprints(nfs nf.List) (map[string]string, string) {
	var known map[nf.NF]string
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		known, c.fps = c.fps, make(map[nf.NF]string, len(nfs))
	}
	fps := make(map[string]string, len(nfs))
	list := make([]string, 0, len(nfs))
	for _, f := range nfs {
		// Only an NF of a comparable dynamic type can key the memo.
		keyed := c != nil && reflect.TypeOf(f).Comparable()
		fp, ok := "", false
		if keyed {
			fp, ok = known[f]
		}
		if !ok {
			fp = nfFingerprint(f)
		}
		if keyed {
			c.fps[f] = fp
		}
		fps[f.Name()] = fp
		list = append(list, f.Name()+"="+fp)
	}
	sort.Strings(list)
	return fps, strings.Join(list, ",")
}

// dropPrefix evicts every entry whose stage name starts with the
// prefix. Build uses it to invalidate the cached pipelet programs when
// previous-generation state cannot be adopted.
func (c *Cache) dropPrefix(prefix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if strings.HasPrefix(k, prefix) {
			delete(c.entries, k)
		}
	}
}

// previous returns the composer of the last successful build, if any.
func (c *Cache) previous() *compose.Composer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prev
}

// setPrevious records the composer of a completed build.
func (c *Cache) setPrevious(comp *compose.Composer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prev = comp
}
