package sim

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/obs"
	"livesim/internal/prof"
	"livesim/internal/vm"
)

// stallSrc is a counter that saturates: u_cnt's q advances 0..5 and then
// holds, so its commits are state-changing for exactly 5 cycles and
// quiescent forever after — a known ground truth for toggle/quiescence
// accounting. The top module has no registers, so every one of its
// commits is quiescent.
const stallSrc = `
module satcnt (input clk, output reg [3:0] q);
  always @(posedge clk) if (q != 4'd5) q <= q + 1;
endmodule
module stall (input clk, input [3:0] in, output [3:0] sum);
  wire [3:0] a;
  satcnt u_cnt (.clk(clk), .q(a));
  assign sum = a + in;
endmodule
`

func TestProfilerQuiescenceAccounting(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if s.Profiler() != p {
		t.Fatal("profiler not attached")
	}

	const cycles = 20
	if err := s.Tick(cycles); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.Instances != s.NumInstances() {
		t.Fatalf("snapshot instances %d, sim has %d", snap.Instances, s.NumInstances())
	}
	if snap.Cycles != cycles || snap.SeqEvals != uint64(cycles*s.NumInstances()) {
		t.Fatalf("cycles %d seqEvals %d", snap.Cycles, snap.SeqEvals)
	}

	byPath := map[string]prof.InstStat{}
	for _, st := range snap.Insts {
		byPath[st.Path] = st
	}
	cnt, ok := byPath["top.u_cnt"]
	if !ok {
		t.Fatalf("no top.u_cnt in %v", pathsOf(snap))
	}
	// q changes on cycles 0..4 (0->1 .. 4->5), then saturates.
	if cnt.Toggles != 5 || cnt.QuiescentEvals != cycles-5 {
		t.Errorf("u_cnt toggles %d quiescent %d, want 5/%d", cnt.Toggles, cnt.QuiescentEvals, cycles-5)
	}
	if !cnt.EverActive || cnt.LastActiveCycle != 4 {
		t.Errorf("u_cnt everActive %v lastActive %d, want true/4", cnt.EverActive, cnt.LastActiveCycle)
	}
	if cnt.QuietStreak != cycles-5 || cnt.MaxQuietStreak != cycles-5 {
		t.Errorf("u_cnt streak %d/%d, want %d", cnt.QuietStreak, cnt.MaxQuietStreak, cycles-5)
	}
	if cnt.SeqEvals != cycles || cnt.CombEvals == 0 {
		t.Errorf("u_cnt seq %d comb %d", cnt.SeqEvals, cnt.CombEvals)
	}
	topStat := byPath["top"]
	if topStat.EverActive || topStat.Toggles != 0 || topStat.QuiescentEvals != cycles {
		t.Errorf("top should be fully quiescent: %+v", topStat)
	}
	// The design-wide quiescent fraction: all instance-evals except
	// u_cnt's first five changed nothing.
	wantQ := uint64(cycles*s.NumInstances() - 5)
	if snap.QuiescentEvals != wantQ {
		t.Errorf("quiescent %d want %d", snap.QuiescentEvals, wantQ)
	}
}

func TestProfilerDetachStopsRecording(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	s.SetProfiler(nil)
	if s.Profiler() != nil {
		t.Fatal("still attached")
	}
	before := p.Snapshot()
	if err := s.Tick(16); err != nil {
		t.Fatal(err)
	}
	after := p.Snapshot()
	if after.SeqEvals != before.SeqEvals || after.Cycles != before.Cycles {
		t.Errorf("detached profiler kept recording: %d -> %d evals", before.SeqEvals, after.SeqEvals)
	}
	// Reattaching resumes into the same statistics, and the cycle-range
	// bookkeeping absorbs the gap.
	s.SetProfiler(p)
	if err := s.Tick(2); err != nil {
		t.Fatal(err)
	}
	final := p.Snapshot()
	if final.Cycles != before.Cycles+2 {
		t.Errorf("cycles %d want %d", final.Cycles, before.Cycles+2)
	}
}

func TestProfilerSurvivesReload(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	objs2, _ := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	current := objs
	s, err := New(ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := current[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q", key)
	}), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(8); err != nil {
		t.Fatal(err)
	}
	pre := p.Snapshot()

	// Hot-reload the counter stage with a recompiled object (Reload
	// rebuilds the node index, which must rebind the profiler with stats
	// carried over by path).
	var cntKey string
	for k := range objs {
		if strings.HasPrefix(k, "satcnt") {
			cntKey = k
		}
	}
	current = objs2
	if n, err := s.Reload(cntKey, nil); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("reloaded %d instances, want 1", n)
	}
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	post := p.Snapshot()
	if post.Instances != pre.Instances {
		t.Fatalf("instances %d -> %d across reload", pre.Instances, post.Instances)
	}
	var preCnt, postCnt prof.InstStat
	for _, st := range pre.Insts {
		if st.Path == "top.u_cnt" {
			preCnt = st
		}
	}
	for _, st := range post.Insts {
		if st.Path == "top.u_cnt" {
			postCnt = st
		}
	}
	if postCnt.SeqEvals != preCnt.SeqEvals+4 {
		t.Errorf("u_cnt evals %d -> %d, want carry across reload", preCnt.SeqEvals, postCnt.SeqEvals)
	}
}

// TestProfilerComposesWithVMProfiler drives both profiling seams at
// once: the instance-level activity profiler and the instruction-level
// vm.Profiler (satellite: TickProfiled and SettleProfiled share the
// same profiled execution path).
func TestProfilerComposesWithVMProfiler(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	vp := &countProfiler{}
	if err := s.TickProfiled(10, vp); err != nil {
		t.Fatal(err)
	}
	if vp.instrs == 0 {
		t.Error("vm profiler saw no instructions")
	}
	if tot := p.Totals(); tot.SeqEvals != uint64(10*s.NumInstances()) {
		t.Errorf("activity profiler missed profiled ticks: %d seq evals", tot.SeqEvals)
	}
	before := vp.instrs
	if err := s.SettleProfiled(vp); err != nil {
		t.Fatal(err)
	}
	// A settle on an already-settled sim may execute nothing, but the
	// call must route through the profiled path without error; force a
	// change and settle again to see instructions.
	if err := s.SetIn("in", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SettleProfiled(vp); err != nil {
		t.Fatal(err)
	}
	if vp.instrs == before {
		t.Error("SettleProfiled executed no profiled instructions after an input change")
	}
}

type countProfiler struct{ instrs, datas int }

func (c *countProfiler) Instr(uint64, bool, bool) { c.instrs++ }
func (c *countProfiler) Data(uint64, bool)        { c.datas++ }

func pathsOf(s *prof.Snapshot) []string {
	out := make([]string, len(s.Insts))
	for i, st := range s.Insts {
		out[i] = st.Path
	}
	return out
}

// TestKernelCounters: the settle counters agree with the activity
// profiler (one comb evaluation per instance visit) and with the compiled
// schedule (every visit runs the instance's whole out-wire list).
func TestKernelCounters(t *testing.T) {
	objs, top := buildDesign(t, combChainSrc, "wrap", codegen.StyleGrouped)
	reg := obs.NewRegistry()
	s, err := New(tableResolver(objs), top, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	wiresPerEval := map[int]uint64{}
	for _, n := range s.Nodes() {
		wiresPerEval[n.idx] = uint64(len(n.wires))
	}
	for i := uint64(0); i < 20; i++ {
		s.SetIn("a", i*7)
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	evals := reg.Counter("sim_comb_evals").Value()
	copies := reg.Counter("sim_wire_copies").Value()
	if tot := p.Totals(); evals == 0 || evals != tot.CombEvals {
		t.Errorf("sim_comb_evals %d, activity profiler counted %d comb evals", evals, tot.CombEvals)
	}
	var want uint64
	for _, st := range p.Snapshot().Insts {
		n, err := s.FindNode(st.Path)
		if err != nil {
			t.Fatal(err)
		}
		want += st.CombEvals * wiresPerEval[n.idx]
	}
	if copies == 0 || copies != want {
		t.Errorf("sim_wire_copies %d, want %d (comb evals x out-wires)", copies, want)
	}
	if passes := reg.Counter("sim_settle_passes").Value(); passes < reg.Counter("sim_settle_calls").Value() {
		t.Errorf("sim_settle_passes %d below sim_settle_calls", passes)
	}
}
