package vm

import (
	"bytes"
	"testing"
	"testing/quick"
)

// buildALUObject builds a tiny object computing several ops over two input
// ports into output ports, 8-bit wide.
func buildALUObject() *Object {
	m := Mask(8)
	obj := &Object{
		Key: "alu", ModName: "alu", NumSlots: 10,
		Ports: []Port{
			{Name: "a", Dir: In, Slot: 0, Mask: m},
			{Name: "b", Dir: In, Slot: 1, Mask: m},
			{Name: "sum", Dir: Out, Slot: 2, Mask: m},
			{Name: "diff", Dir: Out, Slot: 3, Mask: m},
			{Name: "lt", Dir: Out, Slot: 4, Mask: 1},
		},
		Comb: []Instr{
			{Op: OpAdd, Dst: 2, A: 0, B: 1, Imm: m},
			{Op: OpSub, Dst: 3, A: 0, B: 1, Imm: m},
			{Op: OpLtU, Dst: 4, A: 0, B: 1},
		},
	}
	return obj
}

func TestALUComb(t *testing.T) {
	obj := buildALUObject()
	if err := obj.Validate(); err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(obj)
	inst.Slots[0], inst.Slots[1] = 200, 100
	var st Stats
	inst.RunComb(&st)
	if inst.Slots[2] != 44 { // 300 & 0xff
		t.Errorf("sum %d", inst.Slots[2])
	}
	if inst.Slots[3] != 100 {
		t.Errorf("diff %d", inst.Slots[3])
	}
	if inst.Slots[4] != 0 {
		t.Errorf("lt %d", inst.Slots[4])
	}
	if st.Ops != 3 {
		t.Errorf("ops %d", st.Ops)
	}
}

// buildCounterObject builds an 8-bit counter with enable: always @(posedge)
// if (en) cnt <= cnt + 1.
func buildCounterObject() *Object {
	m := Mask(8)
	return &Object{
		Key: "counter", ModName: "counter", NumSlots: 6,
		Ports: []Port{
			{Name: "en", Dir: In, Slot: 0, Mask: 1},
			{Name: "cnt", Dir: Out, Slot: 1, Mask: m},
		},
		Regs:   []Reg{{Name: "cnt", Cur: 1, Next: 2, Mask: m}},
		Consts: []ConstInit{{Slot: 3, Value: 1}},
		Seq: []Instr{
			{Op: OpJz, A: 0, B: 2},                  // if !en skip
			{Op: OpAdd, Dst: 2, A: 1, B: 3, Imm: m}, // next = cur + 1
		},
	}
}

func tick(inst *Instance, st *Stats) {
	inst.RunComb(st)
	inst.RunSeq(st)
	inst.Commit()
}

func TestCounterSeq(t *testing.T) {
	obj := buildCounterObject()
	if err := obj.Validate(); err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(obj)
	var st Stats
	inst.Slots[0] = 1
	for i := 0; i < 300; i++ {
		tick(inst, &st)
	}
	if inst.Slots[1] != 300&0xff {
		t.Errorf("cnt %d want %d", inst.Slots[1], 300&0xff)
	}
	inst.Slots[0] = 0 // disable
	for i := 0; i < 10; i++ {
		tick(inst, &st)
	}
	if inst.Slots[1] != 300&0xff {
		t.Errorf("cnt moved while disabled: %d", inst.Slots[1])
	}
	if st.Branches == 0 || st.Taken == 0 {
		t.Errorf("branch stats %+v", st)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := Mask(16)
	obj := &Object{
		Key: "ram", ModName: "ram", NumSlots: 8,
		Mems: []Mem{{Name: "mem", Index: 0, Depth: 16, Mask: m}},
		// comb: slot3 = mem[slot0]
		Comb: []Instr{{Op: OpMemRd, Dst: 3, A: 0, B: 0}},
		// seq: if (slot1 != 0) mem[slot0] = slot2
		Seq: []Instr{
			{Op: OpJz, A: 1, B: 2},
			{Op: OpMemWr, A: 0, B: 0, C: 2, Imm: m},
		},
	}
	if err := obj.Validate(); err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(obj)
	var st Stats
	inst.Slots[0], inst.Slots[1], inst.Slots[2] = 5, 1, 0xABCD
	inst.RunComb(&st)
	if inst.Slots[3] != 0 {
		t.Errorf("read before write: %x", inst.Slots[3])
	}
	inst.RunSeq(&st)
	// Write is buffered: not visible until commit.
	inst.RunComb(&st)
	if inst.Slots[3] != 0 {
		t.Errorf("write visible before commit")
	}
	inst.Commit()
	inst.RunComb(&st)
	if inst.Slots[3] != 0xABCD {
		t.Errorf("read after write: %x", inst.Slots[3])
	}
	// Out-of-range read returns 0, out-of-range write is dropped.
	inst.Slots[0] = 99
	inst.RunSeq(&st)
	inst.Commit()
	inst.RunComb(&st)
	if inst.Slots[3] != 0 {
		t.Errorf("oob read: %x", inst.Slots[3])
	}
}

func TestSignedOps(t *testing.T) {
	if got := SignExtend(0x80, 8); got != 0xFFFFFFFFFFFFFF80 {
		t.Errorf("sext %x", got)
	}
	if got := SignExtend(0x7F, 8); got != 0x7F {
		t.Errorf("sext %x", got)
	}
	if got := SignExtend(0xdeadbeef, 64); got != 0xdeadbeef {
		t.Errorf("sext64 %x", got)
	}

	obj := &Object{
		Key: "s", ModName: "s", NumSlots: 8,
		Comb: []Instr{
			{Op: OpSext, Dst: 2, A: 0, W: 8, Imm: Mask(64)},
			{Op: OpSext, Dst: 3, A: 1, W: 8, Imm: Mask(64)},
			{Op: OpLtS, Dst: 4, A: 2, B: 3},
			{Op: OpSshr, Dst: 5, A: 0, B: 6, W: 8, Imm: Mask(8)},
		},
	}
	inst := NewInstance(obj)
	inst.Slots[0] = 0x80 // -128
	inst.Slots[1] = 0x01 // 1
	inst.Slots[6] = 2    // shift amount
	inst.RunComb(nil)
	if inst.Slots[4] != 1 {
		t.Errorf("-128 < 1 signed failed")
	}
	if inst.Slots[5] != 0xE0 { // -128 >>> 2 = -32 = 0xE0
		t.Errorf("sshr got %x", inst.Slots[5])
	}
}

func TestDivModByZero(t *testing.T) {
	m := Mask(8)
	obj := &Object{
		Key: "d", ModName: "d", NumSlots: 6,
		Comb: []Instr{
			{Op: OpDiv, Dst: 2, A: 0, B: 1, Imm: m},
			{Op: OpMod, Dst: 3, A: 0, B: 1, Imm: m},
		},
	}
	inst := NewInstance(obj)
	inst.Slots[0], inst.Slots[1] = 42, 0
	inst.RunComb(nil)
	if inst.Slots[2] != m || inst.Slots[3] != m {
		t.Errorf("div/mod by zero: %x %x", inst.Slots[2], inst.Slots[3])
	}
	inst.Slots[1] = 5
	inst.RunComb(nil)
	if inst.Slots[2] != 8 || inst.Slots[3] != 2 {
		t.Errorf("div/mod: %d %d", inst.Slots[2], inst.Slots[3])
	}
}

func TestReductionAndMux(t *testing.T) {
	obj := &Object{
		Key: "r", ModName: "r", NumSlots: 10,
		Comb: []Instr{
			{Op: OpRedOr, Dst: 2, A: 0},
			{Op: OpRedAnd, Dst: 3, A: 0, Imm: Mask(4)},
			{Op: OpRedXor, Dst: 4, A: 0},
			{Op: OpMux, Dst: 5, A: 2, B: 0, C: 1},
		},
	}
	inst := NewInstance(obj)
	inst.Slots[0], inst.Slots[1] = 0xF, 0x3
	inst.RunComb(nil)
	if inst.Slots[2] != 1 || inst.Slots[3] != 1 || inst.Slots[4] != 0 || inst.Slots[5] != 0xF {
		t.Errorf("got %v", inst.Slots[:6])
	}
	inst.Slots[0] = 0
	inst.RunComb(nil)
	if inst.Slots[2] != 0 || inst.Slots[3] != 0 || inst.Slots[5] != 0x3 {
		t.Errorf("got %v", inst.Slots[:6])
	}
}

func TestShiftEdgeCases(t *testing.T) {
	obj := &Object{
		Key: "sh", ModName: "sh", NumSlots: 8,
		Comb: []Instr{
			{Op: OpShl, Dst: 2, A: 0, B: 1, Imm: Mask(64)},
			{Op: OpShr, Dst: 3, A: 0, B: 1},
		},
	}
	inst := NewInstance(obj)
	inst.Slots[0], inst.Slots[1] = 0xFF, 100 // shift >= 64
	inst.RunComb(nil)
	if inst.Slots[2] != 0 || inst.Slots[3] != 0 {
		t.Errorf("oversized shift: %x %x", inst.Slots[2], inst.Slots[3])
	}
}

func TestDisplayAndFinish(t *testing.T) {
	obj := &Object{
		Key: "disp", ModName: "disp", NumSlots: 4,
		Displays: []Display{{Format: "v=%d h=%x %% %c", Args: []uint32{0, 1, 2}}},
		Seq: []Instr{
			{Op: OpDisplay, Imm: 0},
			{Op: OpFinish},
		},
	}
	inst := NewInstance(obj)
	var buf bytes.Buffer
	inst.Output = &buf
	inst.Slots[0], inst.Slots[1], inst.Slots[2] = 42, 255, 'Z'
	inst.RunSeq(nil)
	if got := buf.String(); got != "v=42 h=ff % Z\n" {
		t.Errorf("display output %q", got)
	}
	if !inst.FinishReq {
		t.Error("finish not requested")
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	a := buildALUObject()
	b := buildALUObject()
	if a.Hash() != b.Hash() {
		t.Error("identical objects must hash equal")
	}
	c := buildALUObject()
	c.Comb[0].Op = OpSub
	if c.Hash() == a.Hash() {
		t.Error("different code must hash differently")
	}
}

func TestValidateCatchesBadObjects(t *testing.T) {
	cases := []*Object{
		{Key: "bad1", NumSlots: 2, Comb: []Instr{{Op: OpJmp, B: 99}}},
		{Key: "bad2", NumSlots: 2, Comb: []Instr{{Op: OpMemRd, B: 3}}},
		{Key: "bad3", NumSlots: 1, Ports: []Port{{Name: "p", Slot: 5}}},
		{Key: "bad4", NumSlots: 1, Regs: []Reg{{Name: "r", Cur: 0, Next: 9}}},
		{Key: "bad5", NumSlots: 1, Mems: []Mem{{Name: "m", Index: 0, Depth: 0}}},
		{Key: "bad6", NumSlots: 1, Seq: []Instr{{Op: OpDisplay, Imm: 2}}},
	}
	for _, obj := range cases {
		if err := obj.Validate(); err == nil {
			t.Errorf("%s: want validation error", obj.Key)
		}
	}
}

func TestZeroStateAndReset(t *testing.T) {
	obj := buildCounterObject()
	inst := NewInstance(obj)
	inst.Slots[0] = 1
	for i := 0; i < 5; i++ {
		tick(inst, nil)
	}
	if inst.Slots[1] != 5 {
		t.Fatalf("cnt %d", inst.Slots[1])
	}
	inst.ZeroState()
	if inst.Slots[1] != 0 {
		t.Errorf("cnt after zero: %d", inst.Slots[1])
	}
	if inst.Slots[3] != 1 {
		t.Errorf("const pool not reapplied: %d", inst.Slots[3])
	}
}

// countingProfiler counts events for profiler tests.
type countingProfiler struct {
	instrs, branches, taken, reads, writes int
}

func (p *countingProfiler) Instr(addr uint64, isBranch, taken bool) {
	p.instrs++
	if isBranch {
		p.branches++
	}
	if taken {
		p.taken++
	}
}

func (p *countingProfiler) Data(addr uint64, write bool) {
	if write {
		p.writes++
	} else {
		p.reads++
	}
}

func TestProfiledRun(t *testing.T) {
	obj := buildCounterObject()
	inst := NewInstance(obj)
	inst.CodeBase = 0x400000
	inst.DataBase = 0x10000
	inst.Slots[0] = 1
	var st Stats
	prof := &countingProfiler{}
	inst.RunCombProfiled(&st, prof)
	inst.RunSeqProfiled(&st, prof)
	inst.Commit()
	if prof.instrs == 0 || prof.branches == 0 {
		t.Errorf("profiler saw nothing: %+v", prof)
	}
	if uint64(prof.instrs) != st.Ops {
		t.Errorf("profiler instrs %d != stats ops %d", prof.instrs, st.Ops)
	}
}

// Property: for random inputs, masked addition is commutative and
// subtraction inverts it, as executed by the VM.
func TestVMAddSubProperty(t *testing.T) {
	obj := buildALUObject()
	inst := NewInstance(obj)
	f := func(a, b uint8) bool {
		inst.Slots[0], inst.Slots[1] = uint64(a), uint64(b)
		inst.RunComb(nil)
		sum := inst.Slots[2]
		inst.Slots[0], inst.Slots[1] = uint64(b), uint64(a)
		inst.RunComb(nil)
		if inst.Slots[2] != sum {
			return false
		}
		inst.Slots[0], inst.Slots[1] = sum, uint64(b)
		inst.RunComb(nil)
		return inst.Slots[3] == uint64(a)&0xff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Mask/SignExtend agree for all widths.
func TestMaskSignExtendProperty(t *testing.T) {
	f := func(v uint64, w8 uint8) bool {
		w := int(w8%64) + 1
		mv := v & Mask(w)
		se := SignExtend(mv, w)
		// Low w bits preserved.
		if se&Mask(w) != mv {
			return false
		}
		// High bits replicate the sign bit.
		sign := (mv >> uint(w-1)) & 1
		hi := se >> uint(w)
		if w == 64 {
			return true
		}
		if sign == 1 {
			return hi == Mask(64-w)
		}
		return hi == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Ops: 1, Branches: 2, Taken: 3, MemOps: 4}
	b := Stats{Ops: 10, Branches: 20, Taken: 30, MemOps: 40}
	a.Add(b)
	if a != (Stats{Ops: 11, Branches: 22, Taken: 33, MemOps: 44}) {
		t.Errorf("got %+v", a)
	}
}

func TestObjectLookups(t *testing.T) {
	obj := buildCounterObject()
	if obj.PortIndex("en") != 0 || obj.PortIndex("cnt") != 1 || obj.PortIndex("zz") != -1 {
		t.Error("PortIndex wrong")
	}
	if obj.RegByName("cnt") == nil || obj.RegByName("zz") != nil {
		t.Error("RegByName wrong")
	}
	if obj.CodeBytes() != 2*InstrBytes {
		t.Errorf("CodeBytes %d", obj.CodeBytes())
	}
}

// TestCombReads: only operand slots count as reads — not destinations,
// immediates, jump targets, literal shift amounts or memory indices —
// and $display arguments do.
func TestCombReads(t *testing.T) {
	obj := &Object{
		Key:      "reads",
		NumSlots: 12,
		Mems:     []Mem{{Name: "m", Index: 0, Depth: 4, Mask: 0xff}},
		Displays: []Display{{Format: "%d", Args: []uint32{11}}},
		Comb: []Instr{
			{Op: OpAdd, Dst: 2, A: 0, B: 1},
			{Op: OpShlImm, Dst: 3, A: 2, B: 9},
			{Op: OpJz, A: 4, B: 7},
			{Op: OpMux, Dst: 5, A: 6, B: 7, C: 8},
			{Op: OpMemRd, Dst: 9, A: 10, B: 0},
			{Op: OpConst, Dst: 1, Imm: 5},
			{Op: OpDisplay, Imm: 0},
		},
	}
	got := obj.CombReads()
	want := map[int]bool{0: true, 1: true, 2: true, 4: true, 6: true, 7: true, 8: true, 10: true, 11: true}
	for s := range got {
		if got[s] != want[s] {
			t.Errorf("slot %d: read %v, want %v", s, got[s], want[s])
		}
	}
}
