package nf

import (
	"sync"

	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// RateLimiter polices per-tenant bandwidth with token buckets — the
// RMT meter abstraction. Time is advanced explicitly (Advance), which
// keeps the behavioural model deterministic: the test or simulation
// harness owns the clock, mirroring how hardware meters are driven by
// the ASIC clock rather than packet arrival.
type RateLimiter struct {
	mu      sync.Mutex
	buckets map[uint16]*bucket // keyed by tenant ID
	// DefaultAction for traffic without tenant context or bucket.
	PermitUnmetered bool
}

type bucket struct {
	rateBytesPerSec float64
	burstBytes      float64
	tokens          float64
}

// NewRateLimiter creates a rate limiter.
func NewRateLimiter(permitUnmetered bool) *RateLimiter {
	return &RateLimiter{
		buckets:         make(map[uint16]*bucket),
		PermitUnmetered: permitUnmetered,
	}
}

// Name implements NF.
func (r *RateLimiter) Name() string { return "meter" }

// SetRate installs a tenant's token bucket: sustained rate and burst,
// in bytes. The bucket starts full.
func (r *RateLimiter) SetRate(tenant uint16, bytesPerSec, burstBytes float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buckets[tenant] = &bucket{
		rateBytesPerSec: bytesPerSec,
		burstBytes:      burstBytes,
		tokens:          burstBytes,
	}
}

// Advance refills every bucket for the given elapsed seconds.
func (r *RateLimiter) Advance(seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.buckets {
		b.tokens += b.rateBytesPerSec * seconds
		if b.tokens > b.burstBytes {
			b.tokens = b.burstBytes
		}
	}
}

// Meters returns the number of installed buckets.
func (r *RateLimiter) Meters() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buckets)
}

// Tokens returns a tenant's current token balance (for tests).
func (r *RateLimiter) Tokens(tenant uint16) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.buckets[tenant]; b != nil {
		return b.tokens
	}
	return 0
}

// ContextReads implements ContextUser: metering is keyed by the tenant
// ID an upstream classifier or VGW stamped.
func (r *RateLimiter) ContextReads() []uint8 { return []uint8{nsh.KeyTenantID} }

// ContextWrites implements ContextUser: the meter writes nothing.
func (r *RateLimiter) ContextWrites() []uint8 { return nil }

// Execute implements NF: charge the packet's wire length against the
// tenant's bucket; drop on exhaustion (red marking).
//
//dv:hotpath
func (r *RateLimiter) Execute(hdr *packet.Parsed) {
	tenant, ok := hdr.SFC.LookupContext(nsh.KeyTenantID)
	if !ok {
		if !r.PermitUnmetered {
			hdr.SFC.Meta.Set(nsh.FlagDrop)
		}
		return
	}
	r.mu.Lock() //dv:allow hotpath: token buckets are read-modify-written per packet and refilled by Advance; the meter is off the §5 chain and sharding it by tenant is ROADMAP item 2's remainder
	drop := false
	if b := r.buckets[tenant]; b == nil {
		drop = !r.PermitUnmetered
	} else if cost := float64(hdr.WireLen()); b.tokens < cost {
		drop = true
	} else {
		b.tokens -= cost
	}
	r.mu.Unlock()
	if drop {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
	}
}

// Block implements NF.
func (r *RateLimiter) Block() *p4.ControlBlock {
	tbl := &p4.Table{
		Name: "meter_table",
		Keys: []p4.Key{{Field: "sfc.context", Kind: p4.MatchExact}},
		Actions: []*p4.Action{
			{
				Name:   "run_meter",
				Params: []p4.Field{{Name: "meter_idx", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpCount},
					{Kind: p4.OpSetField, Dst: "sfc.flags"}, // drop on red
				},
			},
			{Name: "unmetered", Ops: []p4.Op{{Kind: p4.OpNoop}}},
		},
		DefaultAction: "unmetered",
		Size:          4096,
	}
	return &p4.ControlBlock{
		Name:   "Meter_control",
		Tables: []*p4.Table{tbl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "meter_table"}},
	}
}

// Parser implements NF.
func (r *RateLimiter) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }
