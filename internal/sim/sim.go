// Package sim is the LiveSim simulation kernel: it instantiates a
// hierarchy of vm.Objects, evaluates it cycle by cycle, snapshots and
// restores state, and — the paper's headline mechanism — hot-reloads a
// recompiled object underneath a running simulation while migrating the
// architectural state of every affected instance (Section III-D).
//
// The kernel keeps the paper's structure: objects are shared, instances
// hold only state, and module boundaries are preserved at run time (no
// cross-module inlining). Within a module the compiler has already
// levelized the comb program. Across modules, the kernel compiles the
// port bindings into a settle schedule whenever the hierarchy is built or
// reloaded (schedule.go): a flat list of wires per instance, in which
// pure pass-through wiring is already flattened; the set of input slots
// each object's comb program actually reads; and a topological rank of
// the instances over the resulting dependency graph, with cycles
// through module boundaries condensed. A settle is then one sweep in
// rank order that evaluates only the instances whose comb inputs
// changed, and only a cycle through module boundaries makes it sweep
// again.
package sim

import (
	"fmt"
	"io"
	"strings"

	"livesim/internal/obs"
	"livesim/internal/prof"
	"livesim/internal/vm"
)

// Resolver supplies compiled objects by specialization key. The session's
// Object Library Table (Table II of the paper) implements this.
type Resolver interface {
	Object(key string) (*vm.Object, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(key string) (*vm.Object, error)

// Object calls f.
func (f ResolverFunc) Object(key string) (*vm.Object, error) { return f(key) }

// MigrateFunc transfers architectural state from an instance of the old
// object to an instance of the new one during hot reload. A nil MigrateFunc
// uses name-based matching with the default rules of Table V.
type MigrateFunc func(oldObj *vm.Object, old *vm.Instance, newObj *vm.Object, nu *vm.Instance) error

// Node is one instance in the hierarchy.
type Node struct {
	Name     string // instance name within the parent
	Path     string // full hierarchical path, "." separated
	Obj      *vm.Object
	Inst     *vm.Instance
	Children []*Node
	parent   *Node

	// idx is the node's position in the pre-order index, maintained by
	// rebuildIndex; the activity profiler keys its per-instance counters
	// on it so the hot path never does a map lookup. pos is the node's
	// position in its parent's Children, sched its object's record.
	idx   int
	pos   int
	sched *objSched

	// rank is the node's position in the settle order, and wires are the
	// port copies that follow its comb evaluation (compileSchedule).
	rank  int
	wires []wire

	// dirty marks that a comb-read input or internal state changed since
	// the last combinational evaluation.
	dirty bool
}

// Sim is a running hierarchical simulation.
type Sim struct {
	Root *Node

	// MaxSettle bounds the settle sweeps; exceeding it means a
	// combinational loop through module boundaries.
	MaxSettle int

	// Stats accumulates executed-op counters across the whole run.
	Stats vm.Stats

	cycle    uint64
	finished bool
	settled  bool
	allDirty bool
	resolver Resolver
	output   io.Writer
	nodes    []*Node // pre-order
	order    []*Node // settle order (by rank)

	// objs holds the per-Sim record of every instantiated object: its
	// modeled code address and the slots its comb program reads.
	objs     map[*vm.Object]*objSched
	gen      uint64 // schedule compiles so far
	codeBase uint64
	dataBase uint64

	// sp is the attached activity profiler; nil means off, and every
	// instrumented site below pays exactly one nil check.
	sp *prof.Profiler

	// Cached registry instruments (nil when metrics are disabled; every
	// method on a nil instrument is a no-op, so the hot path below pays
	// exactly one predictable branch per batch update).
	cTicks        *obs.Counter
	cSettleCalls  *obs.Counter
	cSettlePasses *obs.Counter
	cCombEvals    *obs.Counter
	cWireCopies   *obs.Counter
	cReloads      *obs.Counter
	cSwappedInsts *obs.Counter
}

// Option configures a Sim.
type Option func(*Sim)

// WithOutput directs $display text to w.
func WithOutput(w io.Writer) Option { return func(s *Sim) { s.output = w } }

// WithMetrics reports kernel activity (sim_ticks, sim_settle_calls,
// sim_settle_passes, sim_comb_evals, sim_wire_copies, sim_reloads,
// sim_swapped_instances) into reg. The settle counters are added once per
// settle call from local counts. A nil registry keeps the hot path at
// its uninstrumented cost.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Sim) {
		if reg == nil {
			return
		}
		s.cTicks = reg.Counter("sim_ticks")
		s.cSettleCalls = reg.Counter("sim_settle_calls")
		s.cSettlePasses = reg.Counter("sim_settle_passes")
		s.cCombEvals = reg.Counter("sim_comb_evals")
		s.cWireCopies = reg.Counter("sim_wire_copies")
		s.cReloads = reg.Counter("sim_reloads")
		s.cSwappedInsts = reg.Counter("sim_swapped_instances")
	}
}

// New builds the instance hierarchy for topKey.
func New(r Resolver, topKey string, opts ...Option) (*Sim, error) {
	s := &Sim{
		MaxSettle: 64,
		resolver:  r,
		objs:      make(map[*vm.Object]*objSched),
		codeBase:  0x10000,
		dataBase:  0x100000000,
	}
	for _, o := range opts {
		o(s)
	}
	root, err := s.build(topKey, "top", nil)
	if err != nil {
		return nil, err
	}
	s.Root = root
	s.rebuildIndex()
	s.allDirty = true
	return s, nil
}

func (s *Sim) build(key, name string, parent *Node) (*Node, error) {
	obj, err := s.resolver.Object(key)
	if err != nil {
		return nil, err
	}
	n := &Node{Name: name, Obj: obj, Inst: s.newInstance(obj), parent: parent}
	if parent != nil {
		n.Path = parent.Path + "." + name
	} else {
		n.Path = name
	}
	for _, c := range obj.Children {
		cn, err := s.build(c.ObjectKey, c.InstName, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

// newInstance creates an instance with modeled code and data addresses
// assigned.
func (s *Sim) newInstance(obj *vm.Object) *vm.Instance {
	inst := vm.NewInstance(obj)
	inst.Output = s.output
	inst.CodeBase = s.objSched(obj).codeBase
	inst.DataBase = s.dataBase
	s.dataBase += uint64(obj.NumSlots*8+63) &^ 63
	for i := range inst.Mems {
		inst.MemBases = append(inst.MemBases, s.dataBase)
		s.dataBase += uint64(len(inst.Mems[i])*8+63) &^ 63
	}
	return inst
}

func (s *Sim) rebuildIndex() {
	s.nodes = s.nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.idx = len(s.nodes)
		n.sched = s.objSched(n.Obj)
		s.nodes = append(s.nodes, n)
		for i, c := range n.Children {
			c.pos = i
			walk(c)
		}
	}
	walk(s.Root)
	s.compileSchedule()
	if s.sp != nil {
		s.bindProfiler()
	}
}

// SetProfiler attaches (or, with nil, detaches) the activity profiler.
// The profiler is rebound automatically when a hot reload restructures
// the hierarchy, carrying per-instance statistics across the swap. Must
// not be called concurrently with Tick/Settle — the session worker
// serializes both.
func (s *Sim) SetProfiler(p *prof.Profiler) {
	s.sp = p
	if p != nil {
		s.bindProfiler()
	}
}

// Profiler returns the attached activity profiler (nil when off).
func (s *Sim) Profiler() *prof.Profiler { return s.sp }

// bindProfiler hands the profiler the current pre-order topology.
func (s *Sim) bindProfiler() {
	metas := make([]prof.InstMeta, len(s.nodes))
	for i, n := range s.nodes {
		m := prof.InstMeta{Path: n.Path, Key: n.Obj.Key, Parent: -1}
		if n.parent != nil {
			m.Parent = n.parent.idx
			m.Depth = metas[n.parent.idx].Depth + 1
		}
		metas[i] = m
	}
	s.sp.Bind(metas, s.cycle)
}

// Cycle returns the current simulation cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Finished reports whether any instance executed $finish.
func (s *Sim) Finished() bool { return s.finished }

// NumInstances returns the number of instances in the hierarchy.
func (s *Sim) NumInstances() int { return len(s.nodes) }

// Nodes returns the instances in pre-order. The slice is owned by the Sim.
func (s *Sim) Nodes() []*Node { return s.nodes }

// Settle brings every combinational value to its fixed point. It must be
// called after changing root inputs if outputs are read before the next
// Tick.
func (s *Sim) Settle() error { return s.settle(nil) }

// SettleProfiled is Settle with an instruction-stream profiler attached
// — the settle-path counterpart of TickProfiled, so a profiled session
// never has to fall back to the unprofiled settle.
func (s *Sim) SettleProfiled(prof vm.Profiler) error { return s.settle(prof) }

// Tick advances the simulation n cycles.
func (s *Sim) Tick(n int) error { return s.tick(n, nil) }

// TickProfiled advances n cycles feeding the profiler (host cache model).
func (s *Sim) TickProfiled(n int, prof vm.Profiler) error { return s.tick(n, prof) }

func (s *Sim) tick(n int, prof vm.Profiler) error {
	start := s.cycle
	defer func() { s.cTicks.Add(s.cycle - start) }()
	for i := 0; i < n; i++ {
		if err := s.settle(prof); err != nil {
			return fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
		for _, nd := range s.nodes {
			if sp := s.sp; sp != nil {
				t0 := sp.SampleStart()
				nd.Inst.RunSeqProfiled(&s.Stats, prof)
				sp.SeqDone(nd.idx, t0)
			} else {
				nd.Inst.RunSeqProfiled(&s.Stats, prof)
			}
		}
		for _, nd := range s.nodes {
			changed := nd.Inst.Commit()
			if changed {
				nd.dirty = true
			}
			if s.sp != nil {
				s.sp.Commit(nd.idx, changed)
			}
			if nd.Inst.FinishReq {
				s.finished = true
			}
		}
		if s.sp != nil {
			s.sp.EndCycle(s.cycle)
		}
		s.settled = false
		s.cycle++
		if s.finished {
			break
		}
	}
	// Leave the simulation settled so ports and probes reflect the state
	// after the final clock edge.
	if err := s.settle(prof); err != nil {
		return fmt.Errorf("cycle %d: %w", s.cycle, err)
	}
	return nil
}

// ---------------------------------------------------------------- access

// SetIn drives a root input port.
func (s *Sim) SetIn(port string, v uint64) error {
	i := s.Root.Obj.PortIndex(port)
	if i < 0 || s.Root.Obj.Ports[i].Dir != vm.In {
		return fmt.Errorf("no input port %q on %s", port, s.Root.Obj.Key)
	}
	p := s.Root.Obj.Ports[i]
	if s.Root.Inst.Slots[p.Slot] != v&p.Mask {
		s.Root.Inst.Slots[p.Slot] = v & p.Mask
		s.settled = false
		s.Root.dirty = true
	}
	return nil
}

// Out reads a root output port (after Settle or Tick).
func (s *Sim) Out(port string) (uint64, error) {
	i := s.Root.Obj.PortIndex(port)
	if i < 0 {
		return 0, fmt.Errorf("no port %q on %s", port, s.Root.Obj.Key)
	}
	return s.Root.Inst.Slots[s.Root.Obj.Ports[i].Slot], nil
}

// FindNode resolves a hierarchical instance path relative to the root,
// e.g. "top.core0.ex". "top" alone returns the root.
func (s *Sim) FindNode(path string) (*Node, error) {
	parts := strings.Split(path, ".")
	if len(parts) == 0 || parts[0] != s.Root.Name {
		return nil, fmt.Errorf("path %q must start with %q", path, s.Root.Name)
	}
	n := s.Root
outer:
	for _, p := range parts[1:] {
		for _, c := range n.Children {
			if c.Name == p {
				n = c
				continue outer
			}
		}
		return nil, fmt.Errorf("no instance %q under %q", p, n.Path)
	}
	return n, nil
}

// Peek reads a named signal at a hierarchical path "inst.path.signal".
func (s *Sim) Peek(path string) (uint64, error) {
	node, sig, err := s.splitSignalPath(path)
	if err != nil {
		return 0, err
	}
	for _, d := range node.Obj.Debug {
		if d.Name == sig {
			return node.Inst.Slots[d.Slot], nil
		}
	}
	return 0, fmt.Errorf("no signal %q in %s", sig, node.Path)
}

// Poke writes a named register or wire at a hierarchical path. A poke
// into a slot that a port connection drives lasts only until the next
// settle, which copies the driving value back over it.
func (s *Sim) Poke(path string, v uint64) error {
	node, sig, err := s.splitSignalPath(path)
	if err != nil {
		return err
	}
	for _, d := range node.Obj.Debug {
		if d.Name == sig {
			node.Inst.Slots[d.Slot] = v & vm.Mask(d.Bits)
			s.settled = false
			// The slot may be any wire's source or destination, so
			// every instance re-evaluates and re-copies its wires.
			s.allDirty = true
			return nil
		}
	}
	return fmt.Errorf("no signal %q in %s", sig, node.Path)
}

// PeekMem reads one memory word.
func (s *Sim) PeekMem(path string, addr uint64) (uint64, error) {
	node, name, err := s.splitSignalPath(path)
	if err != nil {
		return 0, err
	}
	m := node.Obj.MemByName(name)
	if m == nil {
		return 0, fmt.Errorf("no memory %q in %s", name, node.Path)
	}
	if addr >= uint64(m.Depth) {
		return 0, fmt.Errorf("address %d out of range for %s (depth %d)", addr, path, m.Depth)
	}
	return node.Inst.Mems[m.Index][addr], nil
}

// PokeMem writes one memory word (used by testbenches to load programs).
func (s *Sim) PokeMem(path string, addr, v uint64) error {
	node, name, err := s.splitSignalPath(path)
	if err != nil {
		return err
	}
	m := node.Obj.MemByName(name)
	if m == nil {
		return fmt.Errorf("no memory %q in %s", name, node.Path)
	}
	if addr >= uint64(m.Depth) {
		return fmt.Errorf("address %d out of range for %s (depth %d)", addr, path, m.Depth)
	}
	node.Inst.Mems[m.Index][addr] = v & m.Mask
	s.settled = false
	node.dirty = true
	return nil
}

func (s *Sim) splitSignalPath(path string) (*Node, string, error) {
	i := strings.LastIndex(path, ".")
	if i < 0 {
		return nil, "", fmt.Errorf("signal path %q must be instance.signal", path)
	}
	node, err := s.FindNode(path[:i])
	if err != nil {
		return nil, "", err
	}
	return node, path[i+1:], nil
}
