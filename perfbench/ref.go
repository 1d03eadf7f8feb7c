package main

import (
	"fmt"
	"strings"

	"livesim/internal/codegen"
	"livesim/internal/flatsim"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/liveparser"
	"livesim/internal/pgas"
	"livesim/internal/riscv"
	"livesim/internal/sim"
)

// nodeState is what the checks compare for one PGAS node: its whole
// architectural register file and a digest of its 32 KB local store.
type nodeState struct {
	Regs [32]uint64
	Mem  uint64
}

// memDigest is FNV-1a over the words of a memory.
func memDigest(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		for b := 0; b < 64; b += 8 {
			h ^= (w >> uint(b)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// regfileName and storeName are the memories the checks read, relative to
// the simulation root.
func regfileName(n, i int) string { return strings.TrimPrefix(pgas.RegfilePath(n, i), "top.") }
func storeName(n, i int) string   { return strings.TrimPrefix(pgas.MemPath(n, i), "top.") }

// liveMem returns the backing words of a hierarchical memory of a live
// simulation (path relative to the root, e.g. n0.u_mem.mem).
func liveMem(s *sim.Sim, path string) ([]uint64, error) {
	dot := strings.LastIndexByte(path, '.')
	nd, err := s.FindNode("top." + path[:dot])
	if err != nil {
		return nil, err
	}
	m := nd.Obj.MemByName(path[dot+1:])
	if m == nil {
		return nil, fmt.Errorf("no memory %s", path)
	}
	return nd.Inst.Mems[m.Index], nil
}

// liveState reads every node of an n-node mesh simulated by LiveSim.
func liveState(s *sim.Sim, n int) ([]nodeState, error) {
	return readState(n, func(path string) ([]uint64, error) { return liveMem(s, path) })
}

func readState(n int, mem func(path string) ([]uint64, error)) ([]nodeState, error) {
	out := make([]nodeState, n)
	for i := range out {
		rf, err := mem(regfileName(n, i))
		if err != nil {
			return nil, err
		}
		copy(out[i].Regs[:], rf)
		st, err := mem(storeName(n, i))
		if err != nil {
			return nil, err
		}
		out[i].Mem = memDigest(st)
	}
	return out, nil
}

// diffStates lists how got departs from the reference want.
func diffStates(want, got []nodeState) []string {
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%d nodes, reference has %d", len(got), len(want))}
	}
	var out []string
	for i := range want {
		for r := range want[i].Regs {
			if got[i].Regs[r] != want[i].Regs[r] {
				out = append(out, fmt.Sprintf("node %d x%d=%#x want %#x", i, r, got[i].Regs[r], want[i].Regs[r]))
			}
		}
		if got[i].Mem != want[i].Mem {
			out = append(out, fmt.Sprintf("node %d local store differs", i))
		}
	}
	return out
}

// flatRef is the independent reference for one design source: the design
// flattened and compiled by flatsim, run from cycle 0 and only ever
// advanced forward.
type flatRef struct {
	s *flatsim.Sim
	n int
}

func newFlatRef(src liveparser.Source, n int, images [][]uint64) (*flatRef, error) {
	mods := map[string]*ast.Module{}
	for name, text := range src.Files {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			return nil, fmt.Errorf("reference parse %s: %w", name, err)
		}
		for _, m := range sf.Modules {
			mods[m.Name] = m
		}
	}
	d, err := elab.Elaborate(mods, pgas.TopName(n), nil)
	if err != nil {
		return nil, fmt.Errorf("reference elaborate: %w", err)
	}
	obj, err := flatsim.Compile(d, codegen.StyleMux)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	f := &flatRef{s: flatsim.NewSim(obj), n: n}
	for i, img := range images {
		for w, v := range img {
			if err := f.s.PokeMem(storeName(n, i), uint64(w), v); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *flatRef) advance(cycle uint64) error {
	if cycle < f.s.Cycle() {
		return fmt.Errorf("reference is at cycle %d, cannot go back to %d", f.s.Cycle(), cycle)
	}
	f.s.Tick(int(cycle - f.s.Cycle()))
	return nil
}

func (f *flatRef) state() ([]nodeState, error) {
	return readState(f.n, func(path string) ([]uint64, error) {
		m := f.s.Obj.MemByName(strings.ReplaceAll(path, ".", "__"))
		if m == nil {
			return nil, fmt.Errorf("reference has no memory %s", path)
		}
		return f.s.Inst.Mems[m.Index], nil
	})
}

// kernel is one node's compute-kernel program, assembled once for both
// the simulated mesh and the ISS.
type kernel struct {
	words []uint64
	bytes []byte
}

func assembleKernel(iters int) (kernel, error) {
	p, err := riscv.Assemble(pgas.ComputeProgram(iters))
	if err != nil {
		return kernel{}, err
	}
	return kernel{words: p.Words64(), bytes: p.Bytes()}, nil
}

// checksumWord is the local-store word the compute kernel stores its
// checksum to (byte offset 0x1000).
const checksumWord = 0x1000 / 8

// issResult runs a kernel on the RV64I ISS to its ecall and returns a0
// and the checksum word.
func issResult(k kernel) (a0, checksum uint64, err error) {
	mem := make(riscv.SliceMemory, 32*1024)
	copy(mem, k.bytes)
	cpu := riscv.NewCPU(mem)
	if err := cpu.Run(50_000_000); err != nil {
		return 0, 0, fmt.Errorf("ISS: %w", err)
	}
	if !cpu.Halted {
		return 0, 0, fmt.Errorf("ISS did not halt")
	}
	sum, err := mem.Load(checksumWord*8, 8)
	return cpu.Regs[10], sum, err
}
