package telemetry

import (
	"sync"
	"testing"
)

func TestDropReasonStrings(t *testing.T) {
	// Every reason needs a distinct, stable label value: these strings
	// are part of the exposition contract documented in
	// docs/OBSERVABILITY.md.
	seen := make(map[string]DropReason)
	for r := DropNone; r < numDropReasons; r++ {
		s := r.String()
		if s == "" || s == "unknown" {
			t.Errorf("reason %d has no label", r)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("label %q shared by reasons %d and %d", s, prev, r)
		}
		seen[s] = r
	}
	if DropReason(200).String() != "unknown" {
		t.Error("out-of-range reason not labelled unknown")
	}
}

func TestDatapathShardMapping(t *testing.T) {
	d := NewDatapath(4)
	// The hint is shifted down by 6 bits before the modulo, so hints 64
	// apart must land on distinct shards and the mapping must be stable.
	first := d.Shard(0)
	if d.Shard(0) != first {
		t.Error("Shard not stable for a fixed hint")
	}
	if d.Shard(64) == first {
		t.Error("adjacent 64-byte hints share a shard")
	}
	if d.Shard(64*datapathShards) != first {
		t.Error("shard mapping does not wrap at the shard count")
	}
}

func TestDatapathSnapshotMergesShards(t *testing.T) {
	d := NewDatapath(2)
	// Spread identical traffic over every shard; the snapshot must see
	// the union.
	for i := 0; i < datapathShards; i++ {
		sh := d.Shard(uintptr(i) << 6)
		sh.IngressPass(0)
		sh.EgressPass(0)
		sh.IngressPass(1)
		sh.Recirculation(0)
		sh.Resubmission(1)
		sh.PacketDone(DropNone, 0, 1, 2, 500) // delivered + one mirror copy
	}
	s := d.Snapshot()
	n := uint64(datapathShards)
	if s.IngressPasses[0] != n || s.EgressPasses[0] != n || s.IngressPasses[1] != n {
		t.Errorf("passes not merged: %+v", s)
	}
	if s.Recircs[0] != n || s.Resubmits[1] != n {
		t.Errorf("recircs/resubmits not merged: %+v", s)
	}
	if s.Emitted != 2*n || s.Delivered != n || s.Completed() != n {
		t.Errorf("dispositions not merged: emitted=%d delivered=%d", s.Emitted, s.Delivered)
	}
	if s.Latency.Count != n || s.Recirculation.Count != n {
		t.Errorf("histograms not merged: %d/%d", s.Latency.Count, s.Recirculation.Count)
	}
}

// TestDatapathFlushDelta: the batched per-packet delta must fold into
// the shard exactly like the equivalent sequence of per-event calls,
// including the packed ingress/egress pass word.
func TestDatapathFlushDelta(t *testing.T) {
	d := NewDatapath(3)
	sh := d.Shard(0)
	var delta DatapathDelta
	delta.Ingress[0] = 3
	delta.Egress[0] = 2
	delta.Ingress[2] = 1
	delta.Recircs[0] = 2
	delta.Resubmits[2] = 1
	sh.Flush(&delta)
	sh.Flush(&delta) // deltas are not consumed; flushing twice doubles

	s := d.Snapshot()
	if s.IngressPasses[0] != 6 || s.EgressPasses[0] != 4 {
		t.Errorf("pipeline 0 passes = %d/%d, want 6/4", s.IngressPasses[0], s.EgressPasses[0])
	}
	if s.IngressPasses[1] != 0 || s.EgressPasses[1] != 0 {
		t.Errorf("untouched pipeline 1 counted: %+v", s)
	}
	if s.IngressPasses[2] != 2 || s.EgressPasses[2] != 0 {
		t.Errorf("pipeline 2 passes = %d/%d, want 2/0", s.IngressPasses[2], s.EgressPasses[2])
	}
	if s.Recircs[0] != 4 || s.Resubmits[2] != 2 {
		t.Errorf("recircs/resubmits: %+v", s)
	}
}

// TestDatapathFastDone: the one-atomic fast-path counter must fold
// back into passes, dispositions and both histograms exactly as if
// each packet had gone through Flush + PacketDone.
func TestDatapathFastDone(t *testing.T) {
	d := NewDatapath(2)
	d.SetFastPathLatency(700) // bucket 2 of {250, 500, 1000, ...}
	sh := d.Shard(0)
	if !sh.FastDoneN(0, 0, 3) {
		t.Fatal("FastDoneN(0,0) refused")
	}
	if !sh.FastDoneN(0, 1, 1) {
		t.Fatal("FastDoneN(0,1) refused")
	}
	if sh.FastDoneN(2, 0, 1) || sh.FastDoneN(0, -1, 1) {
		t.Error("out-of-range pipeline pair accepted")
	}
	// One slow-path packet alongside, to check the two paths merge.
	sh.PacketDone(DropNone, 0, 1, 1, 1500)

	s := d.Snapshot()
	if s.IngressPasses[0] != 4 || s.EgressPasses[0] != 3 || s.EgressPasses[1] != 1 {
		t.Errorf("passes: in=%v eg=%v", s.IngressPasses, s.EgressPasses)
	}
	if s.Delivered != 5 || s.Completed() != 5 || s.Emitted != 5 {
		t.Errorf("dispositions: %+v", s)
	}
	if s.Latency.Count != 5 || s.Latency.Counts[2] != 4 || s.Latency.Counts[3] != 1 {
		t.Errorf("latency histogram: %+v", s.Latency)
	}
	if want := uint64(4*700 + 1500); s.Latency.Sum != want {
		t.Errorf("latency sum = %d, want %d", s.Latency.Sum, want)
	}
	// Fast-path packets never recirculate: they land in bucket 0.
	if s.Recirculation.Count != 5 || s.Recirculation.Counts[0] != 4 || s.Recirculation.Counts[1] != 1 {
		t.Errorf("recirculation histogram: %+v", s.Recirculation)
	}
}

func TestDatapathDispositions(t *testing.T) {
	d := NewDatapath(1)
	sh := d.Shard(0)
	sh.PacketDone(DropNone, 0, 0, 1, 100) // delivered
	sh.PacketDone(DropNone, 1, 0, 0, 100) // punted
	sh.PacketDone(DropIngress, 0, 0, 0, 100)
	sh.PacketDone(DropWire, 0, 3, 0, 900)
	sh.Refused()
	s := d.Snapshot()
	if s.Delivered != 1 || s.ToCPU != 1 || s.Dropped != 2 || s.Refused != 1 {
		t.Errorf("dispositions: %+v", s)
	}
	if s.Drops[DropIngress] != 1 || s.Drops[DropWire] != 1 {
		t.Errorf("typed drops: %v", s.Drops)
	}
	if _, ok := s.Drops[DropPassBudget]; ok {
		t.Error("zero-count reason present in snapshot map")
	}
	if s.Completed() != 4 {
		t.Errorf("Completed = %d", s.Completed())
	}
}

// TestDatapathConcurrentHammer drives every counter from many
// goroutines while a reader snapshots continuously. Under -race this
// proves the wait-free contract the asic hot path depends on; the
// final snapshot must balance exactly.
func TestDatapathConcurrentHammer(t *testing.T) {
	d := NewDatapath(4)
	const (
		workers = 8
		perW    = 5_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := d.Shard(uintptr(w) << 6)
			for i := 0; i < perW; i++ {
				p := i % 4
				sh.IngressPass(p)
				sh.EgressPass(p)
				if i%3 == 0 {
					sh.Recirculation(p)
				}
				if i%5 == 0 {
					sh.Resubmission(p)
				}
				switch i % 7 {
				case 0:
					sh.PacketDone(DropPassBudget, 0, 64, 1, 40_000)
				case 1:
					sh.PacketDone(DropNone, 1, 0, 1, 300)
				default:
					sh.PacketDone(DropNone, 0, i%3, 1, 700)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := d.Snapshot()
			if s.Completed() > workers*perW {
				t.Errorf("snapshot over-counts: %d", s.Completed())
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()

	s := d.Snapshot()
	const total = workers * perW
	if s.Completed() != total {
		t.Fatalf("Completed = %d, want %d", s.Completed(), total)
	}
	var passes uint64
	for p := 0; p < 4; p++ {
		passes += s.IngressPasses[p]
	}
	if passes != total {
		t.Errorf("ingress passes = %d, want %d", passes, total)
	}
	if s.Emitted != total {
		t.Errorf("Emitted = %d, want %d", s.Emitted, total)
	}
	if s.Latency.Count != total || s.Recirculation.Count != total {
		t.Errorf("histogram counts: %d/%d", s.Latency.Count, s.Recirculation.Count)
	}
}
