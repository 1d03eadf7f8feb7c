package flatsim

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/pgas"
	"livesim/internal/riscv"
)

func elaborate(t *testing.T, files map[string]string, top string) *elab.Design {
	t.Helper()
	srcs := map[string]*ast.Module{}
	for name, text := range files {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sf.Modules {
			srcs[m.Name] = m
		}
	}
	d, err := elab.Elaborate(srcs, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFlattenSimplePipeline(t *testing.T) {
	files := map[string]string{"t.v": `
module stage (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 1;
endmodule
module pipe (input clk, input [7:0] in, output [7:0] out);
  wire [7:0] mid;
  stage s0 (.clk(clk), .d(in), .q(mid));
  stage s1 (.clk(clk), .d(mid), .q(out));
endmodule
`}
	d := elaborate(t, files, "pipe")
	obj, err := Compile(d, codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(obj)
	if err := s.SetIn("in", 5); err != nil {
		t.Fatal(err)
	}
	s.Tick(2)
	out, err := s.Out("out")
	if err != nil {
		t.Fatal(err)
	}
	if out != 7 { // (5+1)+1
		t.Errorf("out %d want 7", out)
	}
	// Per-instance state is visible under flattened names.
	if v, err := s.Peek("s0.q"); err != nil || v != 6 {
		t.Errorf("s0.q %d %v", v, err)
	}
}

func TestFlattenCodeReplication(t *testing.T) {
	// The flat object's code must grow with the instance count — the
	// pathology the paper attributes to Verilator (Figure 4).
	d1 := elaborate(t, map[string]string{"t.v": pgasLike(2)}, "top")
	d2 := elaborate(t, map[string]string{"t.v": pgasLike(8)}, "top")
	o1, err := Compile(d1, codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Compile(d2, codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	if o2.CodeBytes() < 3*o1.CodeBytes() {
		t.Errorf("code did not replicate: %d vs %d bytes", o1.CodeBytes(), o2.CodeBytes())
	}
}

func pgasLike(n int) string {
	src := `
module worker (input clk, input [15:0] d, output reg [15:0] q);
  reg [15:0] acc;
  always @(posedge clk) begin
    acc <= acc + d;
    q <= acc ^ (d << 2);
  end
endmodule
module top (input clk, input [15:0] seed, output [15:0] sum);
`
	wires := ""
	insts := ""
	sum := "16'd0"
	for i := 0; i < n; i++ {
		wires += fmt.Sprintf("  wire [15:0] q%d;\n", i)
		insts += fmt.Sprintf("  worker w%d (.clk(clk), .d(seed + 16'd%d), .q(q%d));\n", i, i, i)
		sum = fmt.Sprintf("(%s + q%d)", sum, i)
	}
	return src + wires + insts + "  assign sum = " + sum + ";\nendmodule\n"
}

// TestFlatMatchesHierarchicalRISCV co-simulates the flattened PGAS core
// against the hierarchical kernel: same program, same final state.
func TestFlatMatchesHierarchicalRISCV(t *testing.T) {
	prog, err := riscv.Assemble(`
  li sp, 0x2000
  li a0, 0
  li t0, 30
loop:
  add a0, a0, t0
  addi t0, t0, -1
  bnez t0, loop
  li a1, 0x1000
  sd a0, 0(a1)
  ecall
`)
	if err != nil {
		t.Fatal(err)
	}

	// Hierarchical reference.
	hs, err := pgas.NewSim(1, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if err := pgas.LoadImage(hs, 1, 0, prog.Words64()); err != nil {
		t.Fatal(err)
	}
	hCycles, err := pgas.RunToHalt(hs, 20000)
	if err != nil {
		t.Fatal(err)
	}

	// Flat.
	d := elaborate(t, pgas.DesignSource(1), pgas.TopName(1))
	obj, err := Compile(d, codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSim(obj)
	for w, v := range prog.Words64() {
		if err := fs.PokeMem("n0.u_mem.mem", uint64(w), v); err != nil {
			t.Fatal(err)
		}
	}
	for fs.Cycle() < 20000 {
		fs.Tick(64)
		if v, err := fs.Out("halted_all"); err == nil && v == 1 {
			break
		}
	}
	if v, _ := fs.Out("halted_all"); v != 1 {
		t.Fatal("flat sim did not halt")
	}

	// Same halt cycle (both are cycle-accurate models of the same RTL).
	if fc := fs.Cycle() / 64 * 64; fc < hCycles-64 || fs.Cycle() < hCycles {
		t.Logf("halt cycles: hierarchical %d, flat ticked %d", hCycles, fs.Cycle())
	}

	// Same architectural state.
	for r := 1; r < 32; r++ {
		hv, err := pgas.ReadReg(hs, 1, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		fv, err := fs.PeekMem("n0.u_core.u_id.rf", uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		if hv != fv {
			t.Errorf("x%d: hierarchical %#x flat %#x", r, hv, fv)
		}
	}
	hm, _ := hs.PeekMem("top.n0.u_mem.mem", 0x1000/8)
	fm, _ := fs.PeekMem("n0.u_mem.mem", 0x1000/8)
	if hm != fm || hm != 30*31/2 {
		t.Errorf("mem result: hierarchical %d flat %d want %d", hm, fm, 30*31/2)
	}
}

func TestFlatMeshTokenRing(t *testing.T) {
	const n = 4
	d := elaborate(t, pgas.DesignSource(n), pgas.TopName(n))
	obj, err := Compile(d, codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSim(obj)
	images, err := pgas.TokenRingImages(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for w, v := range images[i] {
			if err := fs.PokeMem(fmt.Sprintf("n%d.u_mem.mem", i), uint64(w), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for fs.Cycle() < 30000 {
		fs.Tick(64)
		if v, _ := fs.Out("halted_all"); v == 1 {
			break
		}
	}
	if v, _ := fs.Out("halted_all"); v != 1 {
		t.Fatal("flat mesh did not halt")
	}
	a0, err := fs.PeekMem("n0.u_core.u_id.rf", 10)
	if err != nil {
		t.Fatal(err)
	}
	if a0 != n {
		t.Errorf("token %d want %d", a0, n)
	}
}

// TestFlatPGASMeshEveryTick co-simulates the hierarchical 2x2 mesh
// against the flattened one one cycle at a time, comparing every
// register of every instance after each clock edge and every memory
// every 64 cycles and at the end. The token ring and the reduction both
// move values across nodes, so they cover the fabric's cross-node paths.
func TestFlatPGASMeshEveryTick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 4
	for _, prog := range []struct {
		name   string
		images func(int) ([][]uint64, error)
	}{
		{"tokenring", pgas.TokenRingImages},
		{"reduce", pgas.ReduceImages},
	} {
		t.Run(prog.name, func(t *testing.T) {
			images, err := prog.images(n)
			if err != nil {
				t.Fatal(err)
			}
			hs, err := pgas.NewSim(n, codegen.StyleGrouped)
			if err != nil {
				t.Fatal(err)
			}
			d := elaborate(t, pgas.DesignSource(n), pgas.TopName(n))
			obj, err := Compile(d, codegen.StyleMux)
			if err != nil {
				t.Fatal(err)
			}
			fs := NewSim(obj)
			for i := 0; i < n; i++ {
				if err := pgas.LoadImage(hs, n, i, images[i]); err != nil {
					t.Fatal(err)
				}
				for w, v := range images[i] {
					if err := fs.PokeMem(fmt.Sprintf("n%d.u_mem.mem", i), uint64(w), v); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Pair every hierarchical register and memory with its
			// flattened copy.
			flatRegs := map[string]uint32{}
			for _, r := range obj.Regs {
				flatRegs[r.Name] = r.Cur
			}
			type pair struct {
				name       string
				hier       *uint64
				flat       *uint64
				hmem, fmem []uint64
			}
			var regs, mems []pair
			for _, nd := range hs.Nodes() {
				prefix := strings.ReplaceAll(strings.TrimPrefix(nd.Path, "top"), ".", "__")
				prefix = strings.TrimPrefix(prefix, "__")
				if prefix != "" {
					prefix += "__"
				}
				for _, r := range nd.Obj.Regs {
					fslot, ok := flatRegs[prefix+r.Name]
					if !ok {
						t.Fatalf("no flat register for %s.%s", nd.Path, r.Name)
					}
					regs = append(regs, pair{name: nd.Path + "." + r.Name, hier: &nd.Inst.Slots[r.Cur], flat: &fs.Inst.Slots[fslot]})
				}
				for _, m := range nd.Obj.Mems {
					fm := obj.MemByName(prefix + m.Name)
					if fm == nil {
						t.Fatalf("no flat memory for %s.%s", nd.Path, m.Name)
					}
					mems = append(mems, pair{name: nd.Path + "." + m.Name, hmem: nd.Inst.Mems[m.Index], fmem: fs.Inst.Mems[fm.Index]})
				}
			}
			checkMems := func(cycle uint64) {
				for _, m := range mems {
					for a := range m.hmem {
						if m.hmem[a] != m.fmem[a] {
							t.Fatalf("cycle %d: %s[%d] hierarchical %#x flat %#x", cycle, m.name, a, m.hmem[a], m.fmem[a])
						}
					}
				}
			}

			halted := false
			for hs.Cycle() < 30000 && !halted {
				if err := hs.Tick(1); err != nil {
					t.Fatal(err)
				}
				fs.Tick(1)
				for _, r := range regs {
					if *r.hier != *r.flat {
						t.Fatalf("cycle %d: %s hierarchical %#x flat %#x", hs.Cycle(), r.name, *r.hier, *r.flat)
					}
				}
				if hs.Cycle()%64 == 0 {
					checkMems(hs.Cycle())
				}
				if halted, err = pgas.HaltedAll(hs); err != nil {
					t.Fatal(err)
				}
			}
			if !halted {
				t.Fatal("hierarchical mesh did not halt")
			}
			if v, _ := fs.Out("halted_all"); v != 1 {
				t.Fatal("flat mesh did not halt in the same cycle")
			}
			checkMems(hs.Cycle())
			t.Logf("%d registers and %d memories matched for %d cycles", len(regs), len(mems), hs.Cycle())
		})
	}
}
