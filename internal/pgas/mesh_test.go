package pgas

import (
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/sim"
	"livesim/internal/verify"
)

func TestMeshObjectSharing(t *testing.T) {
	objs, top, err := Build(4, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if top != "pgas_4" {
		t.Errorf("top %q", top)
	}
	// Exactly one object per module: 5 stages + core + node_mem + node +
	// fabric + top = 10, regardless of node count.
	if len(objs) != 10 {
		keys := make([]string, 0, len(objs))
		for k := range objs {
			keys = append(keys, k)
		}
		t.Errorf("object count %d: %v", len(objs), keys)
	}
	big, _, err := Build(9, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 10 {
		t.Errorf("9-node mesh has %d objects, want 10 (code must not replicate)", len(big))
	}
}

func TestMeshTokenRing(t *testing.T) {
	const n = 4
	s, err := NewSim(n, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumInstances() != 1+1+n*9 {
		// top + fabric + n*(node, core, 5 stages, node_mem) = per node 9
		// (node, mem, core, if, id, ex, mem, wb = 8? instance count check
		// is informational; just log it).
		t.Logf("instances: %d", s.NumInstances())
	}
	images, err := TokenRingImages(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := LoadImage(s, n, i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	cycles, err := RunToHalt(s, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring completed in %d cycles", cycles)
	// Node 0 received the token after n-1 increments: value n.
	a0, err := ReadReg(s, n, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a0 != n {
		t.Errorf("node 0 token %d want %d", a0, n)
	}
	// Intermediate nodes saw 1, 2, 3.
	for i := 1; i < n; i++ {
		v, err := ReadReg(s, n, i, 10)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i)+1 {
			t.Errorf("node %d token %d want %d", i, v, i+1)
		}
	}
}

func TestMeshReduce(t *testing.T) {
	const n = 4
	s, err := NewSim(n, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	images, err := ReduceImages(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := LoadImage(s, n, i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunToHalt(s, 40000); err != nil {
		t.Fatal(err)
	}
	// Sum of (i+1)*3 for i=0..3 = 3+6+9+12 = 30.
	total, err := s.PeekMem(MemPath(n, 0), 0x1000/8)
	if err != nil {
		t.Fatal(err)
	}
	if total != 30 {
		t.Errorf("reduction %d want 30", total)
	}
}

func TestComputeProgramDeterministic(t *testing.T) {
	imgs, err := ComputeImages(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		s, err := NewSim(1, codegen.StyleGrouped)
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadImage(s, 1, 0, imgs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := RunToHalt(s, 100000); err != nil {
			t.Fatal(err)
		}
		v, _ := ReadReg(s, 1, 0, 10)
		return v
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Errorf("checksums %x %x", a, b)
	}
}

func TestStylesAgreeOnCompute(t *testing.T) {
	imgs, err := ComputeImages(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := map[codegen.Style]uint64{}
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		s, err := NewSim(1, style)
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadImage(s, 1, 0, imgs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := RunToHalt(s, 100000); err != nil {
			t.Fatal(err)
		}
		v, _ := ReadReg(s, 1, 0, 10)
		results[style] = v
	}
	if results[codegen.StyleGrouped] != results[codegen.StyleMux] {
		t.Errorf("styles disagree: %v", results)
	}
}

// TestSnapshotReplayStateEqual: a 2x2 compute run restored from a
// mid-run snapshot into a fresh simulation replays to exactly the state
// of the uninterrupted run, and a simulation put back to its power-on
// state with Sim.ZeroState replays exactly as a newly built one.
func TestSnapshotReplayStateEqual(t *testing.T) {
	const n = 4
	images, err := ComputeImages(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *sim.Sim {
		s, err := NewSim(n, codegen.StyleGrouped)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := LoadImage(s, n, i, images[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	tick := func(s *sim.Sim, cycles int) {
		if err := s.Tick(cycles); err != nil {
			t.Fatal(err)
		}
	}

	ref := fresh()
	tick(ref, 300)
	mid := ref.Snapshot()
	tick(ref, 400)

	restored, err := NewSim(n, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(mid); err != nil {
		t.Fatal(err)
	}
	tick(restored, 400)
	if eq, diff := verify.StateEqual(ref.Snapshot(), restored.Snapshot()); !eq {
		t.Errorf("restored replay differs: %s", diff)
	}

	zeroed := fresh()
	tick(zeroed, 250)
	zeroed.ZeroState()
	for i := 0; i < n; i++ {
		if err := LoadImage(zeroed, n, i, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	tick(zeroed, 700)
	if eq, diff := verify.StateEqual(ref.Snapshot(), zeroed.Snapshot()); !eq {
		t.Errorf("replay after ZeroState differs from a fresh run: %s", diff)
	}
}
