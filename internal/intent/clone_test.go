package intent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dejavu/internal/config"
)

// cloneRef is the reference Clone: the JSON round trip Clone used to
// be. It is exact except for an empty `omitempty` map (placement,
// fabric.stage_demand, fabric.pin), which it reads back as nil — and
// Diff compares the fabric section with reflect.DeepEqual, so re-applying
// a document that says `"pin": {}` was a fabric change against the
// applier's own copy of it.
func cloneRef(d *Document) *Document {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	var out Document
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return &out
}

// randDoc draws a valid document: every optional section present or
// absent, every slice and map nil, empty or filled, a fabric section
// with and without demands and pins (or placement hints when there is
// no fabric).
func randDoc(rng *rand.Rand) *Document {
	coin := func() bool { return rng.Intn(2) == 0 }
	// strs returns nil, an empty slice or 1–3 strings.
	strs := func(prefix string) []string {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(250))
		}
		return out
	}
	// count returns -1 (nil), 0 (empty) or 1–3.
	count := func() int { return rng.Intn(5) - 1 }

	d := &Document{SchemaVersion: Version}
	if coin() {
		d.Name = fmt.Sprintf("intent-%d", rng.Intn(100))
	}
	d.Profile = [...]string{"", "wedge100b", "tofino4"}[rng.Intn(3)]
	d.Optimizer = [...]string{"", "anneal", "greedy"}[rng.Intn(3)]
	d.Enter = rng.Intn(2)
	d.StrictLint, d.Telemetry, d.Postcards = coin(), coin(), coin()
	if n := count(); n >= 0 {
		d.LoopbackPorts = make([]int, n)
		for i := range d.LoopbackPorts {
			d.LoopbackPorts[i] = rng.Intn(32)
		}
	}

	names := []string{"classifier", "fw", "vgw", "lb", "router", "nat"}
	used := map[string]bool{}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		c := config.ChainSpec{
			PathID: uint16(10 + i), NFs: append([]string(nil), names[:1+rng.Intn(len(names))]...),
			Weight: rng.Float64(), ExitPipeline: rng.Intn(2),
		}
		if coin() {
			c.StaticExitPort = 1 + rng.Intn(30)
		}
		for _, n := range c.NFs {
			used[n] = true
		}
		d.Chains = append(d.Chains, c)
	}

	if coin() {
		s := &config.ClassifierSpec{DefaultPath: uint16(rng.Intn(50)), DefaultIndex: uint8(rng.Intn(6))}
		if n := count(); n >= 0 {
			s.Rules = make([]config.ClassMap, n)
			for i := range s.Rules {
				s.Rules[i] = config.ClassMap{
					Src: "10.0.0.0/8", Proto: "tcp", DstPort: uint16(rng.Intn(1 << 16)),
					Priority: rng.Intn(100), Path: uint16(10 + rng.Intn(4)), InitialIndex: uint8(rng.Intn(6)),
				}
			}
		}
		d.Classifier = s
	}
	if coin() {
		s := &config.FirewallSpec{DefaultPermit: coin()}
		if n := count(); n >= 0 {
			s.Rules = make([]config.ACLRule, n)
			for i := range s.Rules {
				s.Rules[i] = config.ACLRule{Dst: "192.0.2.0/24", Proto: "udp", Priority: rng.Intn(100), Permit: coin()}
			}
		}
		d.Firewall = s
	}
	if coin() {
		s := &config.VGWSpec{LocalVTEP: "192.0.2.1", LocalMAC: "02:00:00:00:00:01"}
		if n := count(); n >= 0 {
			s.VNIs = make([]config.VNIEntry, n)
			for i := range s.VNIs {
				s.VNIs[i] = config.VNIEntry{VNI: rng.Uint32() >> 8, Tenant: uint16(rng.Intn(100))}
			}
		}
		if n := count(); n >= 0 {
			s.Encap = make([]config.EncapRule, n)
			for i := range s.Encap {
				s.Encap[i] = config.EncapRule{InnerDst: "10.0.2.7", VNI: rng.Uint32() >> 8, Remote: "198.51.100.9"}
			}
		}
		d.VGW = s
	}
	if coin() {
		s := &config.LBSpec{SessionCapacity: rng.Intn(1 << 16)}
		if n := count(); n >= 0 {
			s.VIPs = make([]config.VIPSpec, n)
			for i := range s.VIPs {
				s.VIPs[i] = config.VIPSpec{VIP: fmt.Sprintf("203.0.113.%d", rng.Intn(250)), Backends: strs("10.0.1.")}
			}
		}
		d.LB = s
	}
	if coin() {
		s := &config.RouterSpec{}
		if n := count(); n >= 0 {
			s.Routes = make([]config.RouteSpec, n)
			for i := range s.Routes {
				s.Routes[i] = config.RouteSpec{Prefix: "10.0.0.0/8", Port: uint16(rng.Intn(32)), DstMAC: "02:00:00:00:00:02"}
			}
		}
		d.Router = s
	}
	if coin() {
		d.NAT = &config.NATSpec{PublicIP: "192.0.2.1", SessionCapacity: rng.Intn(1 << 16)}
	}
	if coin() {
		d.AnnealSeed = rng.Int63()
	}

	if coin() {
		d.Fabric = &FabricSpec{Switches: 2 + rng.Intn(4)}
		d.Fabric.StageDemand = randHints(rng, used, func() int { return 1 + rng.Intn(3) })
		d.Fabric.Pin = randHints(rng, used, func() int { return rng.Intn(d.Fabric.Switches) })
	} else {
		d.Placement = randHints(rng, used, func() string {
			return fmt.Sprintf("%s %d", [...]string{"ingress", "egress"}[rng.Intn(2)], rng.Intn(2))
		})
	}
	// A valid document hints the classifier only onto the entry; the
	// draws above stay as they were.
	if _, ok := d.Placement["classifier"]; ok {
		d.Placement["classifier"] = fmt.Sprintf("ingress %d", d.Enter)
	}
	if d.Fabric != nil {
		if _, ok := d.Fabric.Pin["classifier"]; ok {
			d.Fabric.Pin["classifier"] = 0
		}
	}
	return d
}

// randHints returns a map over some of the NFs the chains use: nil,
// empty or filled.
func randHints[V any](rng *rand.Rand, used map[string]bool, val func() V) map[string]V {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]V{}
	}
	m := map[string]V{}
	for _, n := range []string{"classifier", "fw", "vgw", "lb", "router", "nat"} {
		if used[n] && rng.Intn(2) == 0 {
			m[n] = val()
		}
	}
	return m
}

// TestCloneMatchesTheJSONRoundTrip: on seeded random documents — as
// drawn, and as Parse returns them — the structural Clone is the
// original value for value, with the same hash, an empty diff, the same
// JSON form and nothing shared; and it is the JSON round trip it
// replaced wherever that round trip was exact.
func TestCloneMatchesTheJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var fabrics, pins, emptyMaps, emptySlices, lossy int
	for i := 0; i < 600; i++ {
		raw := randDoc(rng)
		if err := raw.Validate(); err != nil {
			t.Fatalf("doc %d: the generator drew an invalid document: %v", i, err)
		}
		b, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if raw.Fabric != nil {
			fabrics++
			if len(raw.Fabric.Pin) > 0 {
				pins++
			}
		}
		if raw.Placement != nil && len(raw.Placement) == 0 {
			emptyMaps++
		}
		if raw.LoopbackPorts != nil && len(raw.LoopbackPorts) == 0 {
			emptySlices++
		}
		for _, d := range []*Document{raw, parsed} {
			hash := d.Hash()
			c := d.Clone()
			if c.Hash() != hash {
				t.Fatalf("doc %d: clone hashes to %s, original to %s", i, c.Hash(), hash)
			}
			if delta := Diff(d, c); !delta.Empty() {
				t.Fatalf("doc %d: Diff(original, clone) = %s", i, delta.Summary())
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("doc %d: clone of a valid document is invalid: %v", i, err)
			}
			if !reflect.DeepEqual(c, d) {
				t.Fatalf("doc %d: Clone\n%+v\noriginal\n%+v", i, c, d)
			}
			ref := cloneRef(d)
			if exact := reflect.DeepEqual(ref, d); !exact {
				lossy++
			} else if !reflect.DeepEqual(c, ref) {
				t.Fatalf("doc %d: Clone\n%+v\nJSON round trip\n%+v", i, c, ref)
			}
			if !reflect.DeepEqual(cloneRef(c), ref) {
				t.Fatalf("doc %d: the clone's JSON form reads\n%+v\nthe original's\n%+v", i, cloneRef(c), ref)
			}
			if shared := aliased(reflect.ValueOf(d), reflect.ValueOf(c), "Document"); shared != "" {
				t.Fatalf("doc %d: clone shares %s with the original", i, shared)
			}
			scribble(reflect.ValueOf(c).Elem())
			if d.Hash() != hash {
				t.Fatalf("doc %d: writing through the clone changed the original", i)
			}
		}
	}
	if fabrics == 0 || pins == 0 || fabrics == 600 || emptyMaps == 0 || emptySlices == 0 || lossy == 0 || lossy > 600 {
		t.Errorf("the generator is lopsided: %d fabric documents (%d pinned), %d empty hint maps, %d empty port lists, %d of 1 200 round trips inexact",
			fabrics, pins, emptyMaps, emptySlices, lossy)
	}
}

// TestCloneSharesNoField fills every field reachable from a Document
// with a non-zero value — by reflection, so a field added to
// config.File or to a section later is filled too — and fails if any
// slice, map or pointer of the clone is the original's, or if the clone
// lost a value. A new reference-typed field that Clone copies by
// assignment fails here before it can alias an applied intent.
func TestCloneSharesNoField(t *testing.T) {
	d := &Document{}
	fill(reflect.ValueOf(d).Elem(), 1)
	c := d.Clone()
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("clone of a fully populated document differs:\n%+v\noriginal\n%+v", c, d)
	}
	if shared := aliased(reflect.ValueOf(d), reflect.ValueOf(c), "Document"); shared != "" {
		t.Fatalf("clone shares %s with the original", shared)
	}
	hash := d.Hash()
	scribble(reflect.ValueOf(c).Elem())
	if d.Hash() != hash {
		t.Fatal("writing through the clone changed the original")
	}
}

// fill sets v, recursively, to a non-zero value: two elements in every
// slice, two entries in every map, every pointer allocated.
func fill(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), seed)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed+i)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, seed+i)
			fill(e, seed+i)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed+i)
		}
	default:
		panic("intent: clone tests cannot fill a " + v.Kind().String() + "; teach fill, aliased and scribble about it")
	}
}

// aliased walks two values of one shape in step and names the first
// slice, map or pointer of b that is a's own memory ("" when none).
func aliased(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path
		}
		return aliased(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.Len() > 0 && b.Len() > 0 && a.Pointer() == b.Pointer() {
			return path
		}
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			if s := aliased(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); s != "" {
				return s
			}
		}
	case reflect.Map:
		if a.Len() > 0 && b.Len() > 0 && a.Pointer() == b.Pointer() {
			return path
		}
		for _, k := range a.MapKeys() {
			if e := b.MapIndex(k); e.IsValid() {
				if s := aliased(a.MapIndex(k), e, fmt.Sprintf("%s[%v]", path, k)); s != "" {
					return s
				}
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if s := aliased(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); s != "" {
				return s
			}
		}
	}
	return ""
}

// scribble overwrites everything reachable from v through a slice, map
// or pointer: every element, every entry, every pointee.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
			fill(v.Elem(), 77)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
			fill(v.Index(i), 77)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, 77)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	}
}
