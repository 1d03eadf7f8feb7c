package vm

import (
	"encoding/binary"
	"fmt"
)

// Object files: the on-disk form of a compiled module, the reproduction's
// analog of the paper's per-module shared libraries ("/livesim/objs/...so"
// in Table II). The format is a deterministic little-endian binary so the
// same object always produces the same bytes.

// objMagic identifies LiveSim object files ("LSO1").
const objMagic = 0x314F534C

type objEncoder struct{ buf []byte }

func (e *objEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *objEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *objEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// EncodeObject serializes an object.
func EncodeObject(o *Object) []byte {
	e := &objEncoder{buf: make([]byte, 0, 1024+InstrBytes*(len(o.Comb)+len(o.Seq)))}
	e.u32(objMagic)
	e.str(o.Key)
	e.str(o.ModName)
	e.str(o.SrcPath)
	e.u32(o.NumSlots)

	e.u32(uint32(len(o.Ports)))
	for _, p := range o.Ports {
		e.str(p.Name)
		e.u32(uint32(p.Dir))
		e.u32(p.Slot)
		e.u64(p.Mask)
	}
	e.u32(uint32(len(o.Regs)))
	for _, r := range o.Regs {
		e.str(r.Name)
		e.u32(r.Cur)
		e.u32(r.Next)
		e.u64(r.Mask)
	}
	e.u32(uint32(len(o.Mems)))
	for _, m := range o.Mems {
		e.str(m.Name)
		e.u32(m.Index)
		e.u32(m.Depth)
		e.u64(m.Mask)
	}
	e.u32(uint32(len(o.Consts)))
	for _, c := range o.Consts {
		e.u32(c.Slot)
		e.u64(c.Value)
	}
	e.u32(uint32(len(o.Displays)))
	for _, d := range o.Displays {
		e.str(d.Format)
		e.u32(uint32(len(d.Args)))
		for _, a := range d.Args {
			e.u32(a)
		}
	}
	e.u32(uint32(len(o.Children)))
	for _, c := range o.Children {
		e.str(c.InstName)
		e.str(c.ObjectKey)
		e.u32(uint32(len(c.Binds)))
		for _, b := range c.Binds {
			e.u32(b.ParentSlot)
			e.u32(b.ChildPort)
		}
	}
	for _, code := range [][]Instr{o.Comb, o.Seq} {
		e.u32(uint32(len(code)))
		for _, in := range code {
			e.u32(uint32(in.Op) | uint32(in.W)<<8)
			e.u32(in.Dst)
			e.u32(in.A)
			e.u32(in.B)
			e.u32(in.C)
			e.u64(in.Imm)
		}
	}
	e.u32(uint32(len(o.Debug)))
	for _, d := range o.Debug {
		e.str(d.Name)
		e.u32(d.Slot)
		e.u32(uint32(d.Bits))
	}
	return e.buf
}

type objDecoder struct {
	buf []byte
	off int
}

func (d *objDecoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("object file truncated at offset %d", d.off)
	}
	return nil
}

func (d *objDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *objDecoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *objDecoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("object file corrupt: string length %d", n)
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *objDecoder) count(max uint32, what string) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > max {
		return 0, fmt.Errorf("object file corrupt: %d %s", n, what)
	}
	return int(n), nil
}

// DecodeObject parses an object file and validates it.
func DecodeObject(buf []byte) (*Object, error) {
	d := &objDecoder{buf: buf}
	magic, err := d.u32()
	if err != nil {
		return nil, err
	}
	if magic != objMagic {
		return nil, fmt.Errorf("not a LiveSim object file (magic %#x)", magic)
	}
	o := &Object{}
	if o.Key, err = d.str(); err != nil {
		return nil, err
	}
	if o.ModName, err = d.str(); err != nil {
		return nil, err
	}
	if o.SrcPath, err = d.str(); err != nil {
		return nil, err
	}
	if o.NumSlots, err = d.u32(); err != nil {
		return nil, err
	}

	n, err := d.count(1<<20, "ports")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var p Port
		if p.Name, err = d.str(); err != nil {
			return nil, err
		}
		dir, err := d.u32()
		if err != nil {
			return nil, err
		}
		p.Dir = PortDir(dir)
		if p.Slot, err = d.u32(); err != nil {
			return nil, err
		}
		if p.Mask, err = d.u64(); err != nil {
			return nil, err
		}
		o.Ports = append(o.Ports, p)
	}

	if n, err = d.count(1<<20, "regs"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var r Reg
		if r.Name, err = d.str(); err != nil {
			return nil, err
		}
		if r.Cur, err = d.u32(); err != nil {
			return nil, err
		}
		if r.Next, err = d.u32(); err != nil {
			return nil, err
		}
		if r.Mask, err = d.u64(); err != nil {
			return nil, err
		}
		o.Regs = append(o.Regs, r)
	}

	if n, err = d.count(1<<16, "mems"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var m Mem
		if m.Name, err = d.str(); err != nil {
			return nil, err
		}
		if m.Index, err = d.u32(); err != nil {
			return nil, err
		}
		if m.Depth, err = d.u32(); err != nil {
			return nil, err
		}
		if m.Mask, err = d.u64(); err != nil {
			return nil, err
		}
		o.Mems = append(o.Mems, m)
	}

	if n, err = d.count(1<<20, "consts"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var c ConstInit
		if c.Slot, err = d.u32(); err != nil {
			return nil, err
		}
		if c.Value, err = d.u64(); err != nil {
			return nil, err
		}
		o.Consts = append(o.Consts, c)
	}

	if n, err = d.count(1<<16, "displays"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var dd Display
		if dd.Format, err = d.str(); err != nil {
			return nil, err
		}
		na, err := d.count(1<<12, "display args")
		if err != nil {
			return nil, err
		}
		for j := 0; j < na; j++ {
			a, err := d.u32()
			if err != nil {
				return nil, err
			}
			dd.Args = append(dd.Args, a)
		}
		o.Displays = append(o.Displays, dd)
	}

	if n, err = d.count(1<<20, "children"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var c Child
		if c.InstName, err = d.str(); err != nil {
			return nil, err
		}
		if c.ObjectKey, err = d.str(); err != nil {
			return nil, err
		}
		nb, err := d.count(1<<16, "binds")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nb; j++ {
			var b ChildBind
			if b.ParentSlot, err = d.u32(); err != nil {
				return nil, err
			}
			if b.ChildPort, err = d.u32(); err != nil {
				return nil, err
			}
			c.Binds = append(c.Binds, b)
		}
		o.Children = append(o.Children, c)
	}

	for ci := 0; ci < 2; ci++ {
		nc, err := d.count(1<<24, "instructions")
		if err != nil {
			return nil, err
		}
		code := make([]Instr, nc)
		for i := range code {
			opw, err := d.u32()
			if err != nil {
				return nil, err
			}
			code[i].Op = OpCode(opw & 0xFF)
			code[i].W = uint8(opw >> 8)
			if code[i].Dst, err = d.u32(); err != nil {
				return nil, err
			}
			if code[i].A, err = d.u32(); err != nil {
				return nil, err
			}
			if code[i].B, err = d.u32(); err != nil {
				return nil, err
			}
			if code[i].C, err = d.u32(); err != nil {
				return nil, err
			}
			if code[i].Imm, err = d.u64(); err != nil {
				return nil, err
			}
		}
		if ci == 0 {
			o.Comb = code
		} else {
			o.Seq = code
		}
	}

	if n, err = d.count(1<<20, "debug entries"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var sd SlotDebug
		if sd.Name, err = d.str(); err != nil {
			return nil, err
		}
		if sd.Slot, err = d.u32(); err != nil {
			return nil, err
		}
		bits, err := d.u32()
		if err != nil {
			return nil, err
		}
		sd.Bits = int(bits)
		o.Debug = append(o.Debug, sd)
	}

	if d.off != len(buf) {
		return nil, fmt.Errorf("object file has %d trailing bytes", len(buf)-d.off)
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("decoded object invalid: %w", err)
	}
	return o, nil
}
