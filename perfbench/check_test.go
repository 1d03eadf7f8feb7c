package main

import (
	"strings"
	"testing"

	"livesim/internal/pgas"
)

// A 1x1 session run for a while agrees with flatsim; one corrupted
// register or one corrupted local-store word is flagged.
func TestCheckerFlagsCorruption(t *testing.T) {
	images, err := pgas.ComputeImages(1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s, p, err := newSession(editCfg, nil, testbench(1, images, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 1700); err != nil {
		t.Fatal(err)
	}
	got, err := liveState(p.Sim, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newFlatRef(pgas.Source(1), 1, images)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.advance(p.Sim.Cycle()); err != nil {
		t.Fatal(err)
	}
	want, err := ref.state()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffStates(want, got); len(d) != 0 {
		t.Fatalf("uncorrupted state disagrees with flatsim: %v", d)
	}

	reg := append([]nodeState(nil), got...)
	reg[0].Regs[7] ^= 1 << 40
	if d := diffStates(want, reg); len(d) != 1 || !strings.Contains(d[0], "x7") {
		t.Errorf("corrupted x7: got %v", d)
	}

	word, err := p.Sim.PeekMem(pgas.MemPath(1, 0), 0x900)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Sim.PokeMem(pgas.MemPath(1, 0), 0x900, word^1); err != nil {
		t.Fatal(err)
	}
	mem, err := liveState(p.Sim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffStates(want, mem); len(d) != 1 || !strings.Contains(d[0], "local store") {
		t.Errorf("corrupted memory word: got %v", d)
	}
}

// A mesh run to halt agrees with the ISS and flatsim; a corrupted a0 is
// flagged.
func TestHaltCheck(t *testing.T) {
	k, err := assembleKernel(3)
	if err != nil {
		t.Fatal(err)
	}
	images := [][]uint64{k.words}
	s, p, err := newSession(coreCfg{n: 1, every: 500, lookback: 500}, nil, testbench(1, images, nil))
	if err != nil {
		t.Fatal(err)
	}
	for halted := uint64(0); halted == 0; {
		if err := s.Run("tb0", "p0", 500); err != nil {
			t.Fatal(err)
		}
		if halted, err = p.Sim.Out("halted_all"); err != nil {
			t.Fatal(err)
		}
	}
	if msg, err := checkHalted(p, 1, []kernel{k}, images); err != nil || msg != "" {
		t.Fatalf("halted mesh: %q %v", msg, err)
	}
	a0, err := p.Sim.PeekMem(pgas.RegfilePath(1, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Sim.PokeMem(pgas.RegfilePath(1, 0), 10, a0+1); err != nil {
		t.Fatal(err)
	}
	if msg, err := checkHalted(p, 1, []kernel{k}, images); err != nil || !strings.Contains(msg, "ISS") {
		t.Errorf("corrupted a0 not flagged against the ISS: %q %v", msg, err)
	}
}
