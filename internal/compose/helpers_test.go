package compose

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// build composes every pipelet of the switch and assembles them: the
// build pipeline's composition without its cache, allocation or lint,
// which this package's tests cannot import (pipeline imports compose).
func build(c *Composer) (*Deployment, error) {
	parser, idt, err := MergeParser(ChainNFs(c.Chains), c.NFs)
	if err != nil {
		return nil, err
	}
	blocks := make(map[asic.PipeletID]*p4.ControlBlock)
	ingress := make([]asic.StageFunc, c.Prof.Pipelines)
	egress := make([]asic.StageFunc, c.Prof.Pipelines)
	for _, pl := range c.Prof.Pipelets() {
		if blocks[pl], err = c.BlockFor(pl); err != nil {
			return nil, err
		}
		if pl.Dir == asic.Ingress {
			ingress[pl.Pipeline] = c.FuncFor(pl)
		} else {
			egress[pl.Pipeline] = c.FuncFor(pl)
		}
	}
	return c.Assemble(parser, idt, blocks, ingress, egress), nil
}

// vertexOf builds a parser vertex for assertions.
func vertexOf(typ string, off int) p4.Vertex { return p4.Vertex{Type: typ, Offset: off} }

// mirrorNF builds a mirror NF tapping 9.9.9.9 to port 30.
func mirrorNF(t *testing.T) *nf.Mirror {
	t.Helper()
	m := nf.NewMirror()
	if err := m.AddTap(packet.IP4{9, 9, 9, 9}, packet.IP4{255, 255, 255, 255}, 30, 1); err != nil {
		t.Fatal(err)
	}
	return m
}

// classRuleFor builds a classifier rule steering traffic to dst onto a
// path.
func classRuleFor(dst packet.IP4, path uint16, index uint8) nf.ClassRule {
	return nf.ClassRule{
		DstIP: dst, DstMask: packet.IP4{255, 255, 255, 255},
		Priority: 30,
		Path:     path, InitialIndex: index,
	}
}
