// Package ptf is a send/expect packet test harness over the ASIC
// model — the stand-in for the Packet Test Framework the paper's §5
// uses to "test the input and output packets of multiple SFC paths"
// and verify that placement and routing preserve the original
// functionality.
package ptf

import (
	"fmt"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// Check inspects an emitted packet and returns an error when it does
// not meet expectations.
type Check func(*packet.Parsed) error

// Expect describes one expected output packet.
type Expect struct {
	Port   asic.PortID
	Checks []Check
}

// TestCase is one send/expect scenario.
type TestCase struct {
	Name   string
	InPort asic.PortID
	Pkt    *packet.Parsed

	ExpectOut  []Expect // expected emissions, order-insensitive by port
	ExpectDrop bool
	ExpectCPU  bool
	// MaxRecirculations bounds the traversal cost (-1 = unbounded).
	MaxRecirculations int
}

// Result is the outcome of one test case.
type Result struct {
	Case  TestCase
	Trace *asic.Trace
	Err   error
}

// Harness drives test cases through a switch.
type Harness struct {
	SW *asic.Switch
	// AfterInject, when set, runs after each injection — e.g. a control
	// plane Poll to service punted packets.
	AfterInject func() error
}

// New creates a harness over a switch.
func New(sw *asic.Switch) *Harness { return &Harness{SW: sw} }

// Run executes one test case.
func (h *Harness) Run(tc TestCase) Result {
	res := Result{Case: tc}
	tr, err := h.SW.Inject(tc.InPort, tc.Pkt)
	res.Trace = tr
	if err != nil {
		res.Err = fmt.Errorf("inject: %w", err)
		return res
	}
	if h.AfterInject != nil {
		if err := h.AfterInject(); err != nil {
			res.Err = fmt.Errorf("after-inject hook: %w", err)
			return res
		}
	}
	res.Err = h.verify(tc, tr)
	return res
}

// verify compares a trace against expectations.
func (h *Harness) verify(tc TestCase, tr *asic.Trace) error {
	if tc.ExpectDrop != tr.Dropped {
		return fmt.Errorf("dropped=%v (%s), want dropped=%v (path %s)",
			tr.Dropped, tr.DropReason, tc.ExpectDrop, tr.Path())
	}
	if tc.ExpectCPU && len(tr.CPU) == 0 {
		return fmt.Errorf("expected a CPU punt, got none (path %s)", tr.Path())
	}
	if !tc.ExpectCPU && len(tr.CPU) > 0 {
		return fmt.Errorf("unexpected CPU punt (path %s)", tr.Path())
	}
	if tc.MaxRecirculations >= 0 && tr.Recirculations > tc.MaxRecirculations {
		return fmt.Errorf("recirculations=%d exceed budget %d (path %s)",
			tr.Recirculations, tc.MaxRecirculations, tr.Path())
	}
	if len(tc.ExpectOut) != len(tr.Out) {
		return fmt.Errorf("emitted %d packets, want %d (path %s)", len(tr.Out), len(tc.ExpectOut), tr.Path())
	}
	used := make([]bool, len(tr.Out))
	for _, want := range tc.ExpectOut {
		matched := false
		var lastErr error
		for i, got := range tr.Out {
			if used[i] || got.Port != want.Port {
				continue
			}
			err := runChecks(want.Checks, got.Pkt)
			if err == nil {
				used[i] = true
				matched = true
				break
			}
			lastErr = err
		}
		if !matched {
			if lastErr != nil {
				return fmt.Errorf("packet on port %d failed checks: %w", want.Port, lastErr)
			}
			return fmt.Errorf("no packet emitted on port %d (got %s)", want.Port, emittedPorts(tr))
		}
	}
	return nil
}

func runChecks(checks []Check, pkt *packet.Parsed) error {
	for _, c := range checks {
		if err := c(pkt); err != nil {
			return err
		}
	}
	return nil
}

func emittedPorts(tr *asic.Trace) string {
	var parts []string
	for _, o := range tr.Out {
		parts = append(parts, fmt.Sprintf("%d", o.Port))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Report summarizes a suite run.
type Report struct {
	Passed, Failed int
	Failures       []Result
}

// RunAll executes every test case and aggregates results.
func (h *Harness) RunAll(cases []TestCase) Report {
	var rep Report
	for _, tc := range cases {
		res := h.Run(tc)
		if res.Err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, res)
		} else {
			rep.Passed++
		}
	}
	return rep
}

// String renders the report.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ptf: %d passed, %d failed\n", r.Passed, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  FAIL %s: %v\n", f.Case.Name, f.Err)
	}
	return sb.String()
}

// Common checks.

// HasDst asserts the outer IPv4 destination.
func HasDst(want packet.IP4) Check {
	return func(p *packet.Parsed) error {
		if p.IPv4.Dst != want {
			return fmt.Errorf("dst=%s, want %s", p.IPv4.Dst, want)
		}
		return nil
	}
}

// HasTTL asserts the outer IPv4 TTL.
func HasTTL(want uint8) Check {
	return func(p *packet.Parsed) error {
		if p.IPv4.TTL != want {
			return fmt.Errorf("ttl=%d, want %d", p.IPv4.TTL, want)
		}
		return nil
	}
}

// NoSFC asserts the SFC header was removed before exit.
func NoSFC() Check {
	return func(p *packet.Parsed) error {
		if p.Valid(packet.HdrSFC) {
			return fmt.Errorf("SFC header still present on the wire")
		}
		return nil
	}
}

// HasVXLAN asserts a VXLAN encapsulation with the given VNI.
func HasVXLAN(vni uint32) Check {
	return func(p *packet.Parsed) error {
		if !p.Valid(packet.HdrVXLAN) {
			return fmt.Errorf("no VXLAN header")
		}
		if p.VXLAN.VNI != vni {
			return fmt.Errorf("vni=%d, want %d", p.VXLAN.VNI, vni)
		}
		return nil
	}
}

// HasEthDst asserts the Ethernet destination.
func HasEthDst(want packet.MAC) Check {
	return func(p *packet.Parsed) error {
		if p.Eth.Dst != want {
			return fmt.Errorf("eth dst=%s, want %s", p.Eth.Dst, want)
		}
		return nil
	}
}

// Reparses asserts the packet serializes and re-parses cleanly.
func Reparses() Check {
	return func(p *packet.Parsed) error {
		wire, err := p.Serialize(nil)
		if err != nil {
			return fmt.Errorf("serialize: %w", err)
		}
		var q packet.Parsed
		if err := q.Parse(wire); err != nil {
			return fmt.Errorf("reparse: %w", err)
		}
		return nil
	}
}
