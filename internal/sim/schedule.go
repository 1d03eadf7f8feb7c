package sim

import (
	"fmt"
	"slices"

	"livesim/internal/vm"
)

// wire is one compiled port connection: a masked copy of a source slot
// into a destination slot. to is the destination instance when its comb
// program reads the destination slot; it is nil when the copied value can
// only matter to the destination's seq program, so a change need not
// re-evaluate it.
type wire struct {
	src, dst *uint64
	mask     uint64
	to       *Node
}

// objSched is what the kernel derives from one compiled object. It is held
// per Sim so that the Object itself, shared with concurrent simulations,
// is never written. Everything in it is local to the object: facts that
// depend on which objects its children resolve to are looked up on the
// instances when the schedule is compiled.
type objSched struct {
	codeBase uint64 // modeled load address of the object's code
	gen      uint64 // last schedule compile that found the object instantiated

	reads []bool // per slot: may the comb program read it (Object.CombReads)

	// The wiring tables, nil for an object without children (most are
	// leaves). port[slot] is 1 + the index of the port on the slot, 0 for
	// none. fan[slot] is 1 + the index in binds of the first child
	// binding on that parent slot, 0 for none; binds[i].next chains the
	// rest. The binds of Children[ci] are binds[first[ci]:first[ci+1]].
	port  []int32
	fan   []int32
	binds []childBind
	first []int32
}

// childBind is one of an object's child bindings, with the bindings on
// the same parent slot chained.
type childBind struct {
	slot uint32 // parent slot
	port uint32 // index into the child object's Ports
	ci   int32  // index into Children
	next int32  // next binding on the same parent slot, -1 at the end
}

// objSched returns the per-Sim record for obj, assigning it a modeled
// code address on first sight.
func (s *Sim) objSched(obj *vm.Object) *objSched {
	if o := s.objs[obj]; o != nil {
		return o
	}
	o := &objSched{codeBase: s.codeBase, reads: obj.CombReads()}
	s.codeBase += uint64(obj.CodeBytes()+4095) &^ 4095
	s.objs[obj] = o
	if len(obj.Children) == 0 {
		return o
	}
	o.port = make([]int32, obj.NumSlots)
	o.fan = make([]int32, obj.NumSlots)
	o.first = make([]int32, len(obj.Children)+1)
	for i, p := range obj.Ports {
		o.port[p.Slot] = int32(i) + 1
	}
	nb := 0
	for ci, c := range obj.Children {
		o.first[ci] = int32(nb)
		nb += len(c.Binds)
	}
	o.first[len(obj.Children)] = int32(nb)
	o.binds = make([]childBind, 0, nb)
	for ci, c := range obj.Children {
		for _, b := range c.Binds {
			o.binds = append(o.binds, childBind{slot: b.ParentSlot, port: b.ChildPort, ci: int32(ci)})
		}
	}
	for i := nb - 1; i >= 0; i-- {
		b := &o.binds[i]
		b.next = o.fan[b.slot] - 1
		o.fan[b.slot] = int32(i) + 1
	}
	return o
}

// fanOf returns the index of the first child binding on slot, -1 for none.
func (o *objSched) fanOf(slot uint32) int32 {
	if o.fan == nil {
		return -1
	}
	return o.fan[slot] - 1
}

// compileSchedule turns the hierarchy's port bindings into the settle
// schedule. It runs at build, at every Reload and when a rolled-back
// simulation is rebuilt (that goes through New).
//
//  1. Each binding becomes a wire on the out-list of the instance that
//     drives its source slot. A binding whose source slot is itself
//     written by another binding (a child output that passes through a
//     parent slot to a sibling input, or a parent input passed down to a
//     grandchild) is placed right after that binding instead, so a chain
//     of pure wiring is one ordered run of copies on the instance that
//     actually computes the value.
//  2. A wire marks its destination dirty only if the destination's comb
//     program reads the destination slot (objSched.reads).
//  3. The instance graph with one edge per such sensitive wire is
//     condensed into strongly connected components (Tarjan) and ranked
//     topologically; members of one component keep their pre-order.
//     settle then sweeps in rank order, and only wires that go backwards
//     in rank (inside a component) make it sweep again.
//
// The per-object records carry the wiring of each object once; the walk
// below only instantiates it, so the cost grows with the number of
// bindings and not with the number of slots.
func (s *Sim) compileSchedule() {
	nb := 0
	for _, n := range s.nodes {
		nb += len(n.sched.binds)
	}
	we := wireEmitter{wires: make([]wire, 0, nb)}
	ends := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		// Output ports of n that its parent binds, unless n's own child
		// drives them (then they follow that child's wire).
		if p := n.parent; p != nil {
			for bi := p.sched.first[n.pos]; bi < p.sched.first[n.pos+1]; bi++ {
				b := &p.sched.binds[bi]
				if port := &n.Obj.Ports[b.port]; port.Dir != vm.In && !childDriven(n, port.Slot) {
					we.out(p, b)
				}
			}
		}
		// Slots of n bound to its children's inputs, unless the slot is
		// itself driven by a child output or by n's parent.
		for bi := range n.sched.binds {
			b := &n.sched.binds[bi]
			if n.Children[b.ci].Obj.Ports[b.port].Dir == vm.In && !childDriven(n, b.slot) && !parentDriven(n, b.slot) {
				we.in(n, b)
			}
		}
		ends[i] = len(we.wires)
	}
	start := 0
	for i, n := range s.nodes {
		n.wires = we.wires[start:ends[i]:ends[i]]
		start = ends[i]
	}

	// Objects no longer instantiated are dropped, so a long editing
	// session does not pin every version it ever loaded.
	s.gen++
	for _, n := range s.nodes {
		n.sched.gen = s.gen
	}
	for obj, o := range s.objs {
		if o.gen != s.gen {
			delete(s.objs, obj)
		}
	}

	s.rank()
}

// childDriven reports whether an output port of one of n's children is
// bound to n's slot.
func childDriven(n *Node, slot uint32) bool {
	for j := n.sched.fanOf(slot); j >= 0; j = n.sched.binds[j].next {
		b := &n.sched.binds[j]
		if n.Children[b.ci].Obj.Ports[b.port].Dir != vm.In {
			return true
		}
	}
	return false
}

// parentDriven reports whether slot is an input port of n that n's parent
// binds.
func parentDriven(n *Node, slot uint32) bool {
	k := n.sched.port[slot] - 1
	if k < 0 || n.parent == nil || n.Obj.Ports[k].Dir != vm.In {
		return false
	}
	ps := n.parent.sched
	for bi := ps.first[n.pos]; bi < ps.first[n.pos+1]; bi++ {
		if ps.binds[bi].port == uint32(k) {
			return true
		}
	}
	return false
}

// wireEmitter emits wires with the flattening of compileSchedule step 1.
type wireEmitter struct{ wires []wire }

// in emits p's binding b onto a child input, then every binding that
// passes that input further down.
func (we *wireEmitter) in(p *Node, b *childBind) {
	c := p.Children[b.ci]
	port := &c.Obj.Ports[b.port]
	w := wire{src: &p.Inst.Slots[b.slot], dst: &c.Inst.Slots[port.Slot], mask: port.Mask}
	if c.sched.reads[port.Slot] {
		w.to = c
	}
	we.wires = append(we.wires, w)
	for j := c.sched.fanOf(port.Slot); j >= 0; j = c.sched.binds[j].next {
		if g := &c.sched.binds[j]; c.Children[g.ci].Obj.Ports[g.port].Dir == vm.In {
			we.in(c, g)
		}
	}
}

// out emits p's binding b of a child output onto p's slot, then every
// binding that passes the slot on: to p's other children, and up to p's
// parent when the slot is one of p's output ports.
func (we *wireEmitter) out(p *Node, b *childBind) {
	c := p.Children[b.ci]
	w := wire{src: &c.Inst.Slots[c.Obj.Ports[b.port].Slot], dst: &p.Inst.Slots[b.slot], mask: ^uint64(0)}
	if p.sched.reads[b.slot] {
		w.to = p
	}
	we.wires = append(we.wires, w)
	for j := p.sched.fanOf(b.slot); j >= 0; j = p.sched.binds[j].next {
		if g := &p.sched.binds[j]; p.Children[g.ci].Obj.Ports[g.port].Dir == vm.In {
			we.in(p, g)
		}
	}
	k := p.sched.port[b.slot] - 1
	if k < 0 || p.parent == nil || p.Obj.Ports[k].Dir == vm.In {
		return
	}
	pp := p.parent
	for bi := pp.sched.first[p.pos]; bi < pp.sched.first[p.pos+1]; bi++ {
		if g := &pp.sched.binds[bi]; g.port == uint32(k) {
			we.out(pp, g)
		}
	}
}

// rank orders s.nodes into s.order: strongly connected components of the
// sensitive-wire graph in topological order (Tarjan emits them in reverse),
// each component's members in pre-order.
func (s *Sim) rank() {
	nodes := s.nodes
	index := make([]int32, len(nodes))
	low := make([]int32, len(nodes))
	onStack := make([]bool, len(nodes))
	for i := range index {
		index[i] = -1
	}
	var stack, emitted []int32
	var ends []int
	var counter int32
	var strong func(v int32)
	strong = func(v int32) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for i := range nodes[v].wires {
			to := nodes[v].wires[i].to
			if to == nil {
				continue
			}
			w := int32(to.idx)
			if index[w] < 0 {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			comp := stack[i:]
			slices.Sort(comp)
			for _, w := range comp {
				onStack[w] = false
			}
			emitted = append(emitted, comp...)
			ends = append(ends, len(emitted))
			stack = stack[:i]
		}
	}
	for v := range nodes {
		if index[v] < 0 {
			strong(int32(v))
		}
	}
	if cap(s.order) < len(nodes) {
		s.order = make([]*Node, 0, len(nodes))
	}
	s.order = s.order[:0]
	for c := len(ends) - 1; c >= 0; c-- {
		lo := 0
		if c > 0 {
			lo = ends[c-1]
		}
		for _, v := range emitted[lo:ends[c]] {
			nodes[v].rank = len(s.order)
			s.order = append(s.order, nodes[v])
		}
	}
}

// settle brings every combinational value to its fixed point. One sweep
// visits the instances in rank order; a dirty instance runs its comb
// program and then its out-wires, which dirty the destinations that read
// what changed. Only a wire that dirties an instance at or before the
// current rank (a cycle through module boundaries) makes the sweep
// repeat, from the lowest such rank.
func (s *Sim) settle(prof vm.Profiler) error {
	if s.settled {
		return nil
	}
	s.settled = true
	s.cSettleCalls.Inc()
	if s.allDirty {
		for _, n := range s.nodes {
			n.dirty = true
		}
		s.allDirty = false
	}
	var passes, evals, copies uint64
	defer func() {
		s.cSettlePasses.Add(passes)
		s.cCombEvals.Add(evals)
		s.cWireCopies.Add(copies)
	}()
	order := s.order
	from := 0
	for passes < uint64(s.MaxSettle) {
		passes++
		back := len(order)
		for r := from; r < len(order); r++ {
			n := order[r]
			if !n.dirty {
				continue
			}
			n.dirty = false
			evals++
			if sp := s.sp; sp != nil {
				t0 := sp.SampleStart()
				n.Inst.RunCombProfiled(&s.Stats, prof)
				sp.CombDone(n.idx, t0)
			} else {
				n.Inst.RunCombProfiled(&s.Stats, prof)
			}
			copies += uint64(len(n.wires))
			for i := range n.wires {
				w := &n.wires[i]
				v := *w.src & w.mask
				if *w.dst == v {
					continue
				}
				*w.dst = v
				if to := w.to; to != nil && !to.dirty {
					to.dirty = true
					if to.rank <= r && to.rank < back {
						back = to.rank
					}
				}
			}
		}
		if back == len(order) {
			return nil
		}
		from = back
	}
	return fmt.Errorf("combinational settle did not converge after %d passes (cross-module loop?)", s.MaxSettle)
}
