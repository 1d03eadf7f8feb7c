package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"livesim/internal/codegen"
	"livesim/internal/core"
	"livesim/internal/obs"
	"livesim/internal/pgas"
)

// phase is what one measured pass of a workload produced. Timings cover
// only the calls into the program; set-up and reference checks are
// outside them.
type phase struct {
	setups     []float64     // seconds per set-up
	simCycles  uint64        // cycles advanced by the simulate calls
	simTime    time.Duration // time inside the simulate calls
	results    []float64     // ms, command -> first (estimated) result
	verified   []float64     // ms, command -> verified result
	ops        int           // timed operations
	opTime     time.Duration // time the timed operations took
	failed     int           // operations that errored or disagreed with the reference
	mismatches []string      // one line per failed operation
	rssMB      float64       // peak resident memory when the timed part ended
	layers     map[string]float64
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.mismatches = append(ph.mismatches, fmt.Sprintf(format, args...))
}

// coreCfg shapes a workload driven through core.Session.
type coreCfg struct {
	n               int
	every, lookback uint64
	warm            int     // edit loops: cycles run before timing starts
	runMin, runMax  int     // edit loops: seeded run after each toggle
	setups          int     // edit loops: set-ups per run, for the median
	editsPerS       float64 // edit loops: edits per second of --seconds
}

// budget is the number of operations a pass of dur makes at perS
// operations per second. Edit loops and the served loop do a fixed amount
// of work rather than run against the clock: the known verification
// defect makes every edit after the first unrefined one disagree with the
// reference, so a time-bound loop would fail as many operations as the
// host's speed let it attempt. A fixed budget makes attempted and failed a
// function of the seed and --seconds alone.
func budget(dur time.Duration, perS float64) int {
	return max(2, int(math.Round(dur.Seconds()*perS)))
}

func newSession(cfg coreCfg, reg *obs.Registry, tb core.TestbenchFactory) (*core.Session, *core.Pipe, error) {
	s := core.NewSession(pgas.TopName(cfg.n), core.Config{
		Style:           codegen.StyleGrouped,
		CheckpointEvery: cfg.every,
		Lookback:        cfg.lookback,
		Metrics:         reg,
	})
	if _, err := s.LoadDesign(pgas.Source(cfg.n)); err != nil {
		return nil, nil, err
	}
	s.RegisterTestbench("tb0", tb)
	p, err := s.InstPipe("p0")
	return s, p, err
}

// staticOps is the number of comb+seq instructions of every instance of a
// pipe, the base of sim.ops_executed_per_static.
func staticOps(p *core.Pipe) int {
	t := 0
	for _, nd := range p.Sim.Nodes() {
		t += len(nd.Obj.Comb) + len(nd.Obj.Seq)
	}
	return t
}

// kernelCounters are the registry counters a traced core pass reads.
type kernelCounters struct{ ticks, passes, takes, swapped uint64 }

func readCounters(reg *obs.Registry) kernelCounters {
	return kernelCounters{
		ticks:   reg.Counter("sim_ticks").Value(),
		passes:  reg.Counter("sim_settle_passes").Value(),
		takes:   reg.Counter("checkpoint_takes").Value(),
		swapped: reg.Counter("sim_swapped_instances").Value(),
	}
}

// simLayers fills the sim and checkpoint layer metrics common to every
// core pass; kc0 holds the registry counters when timing started.
func simLayers(ph *phase, rec *recorder, reg *obs.Registry, kc0 kernelCounters, vmOps uint64, static int, stateBytes int) {
	tbTime, tbCycles := rec.total("tb.run")
	_, runCycles := rec.total("core.run")
	kc := readCounters(reg)
	kc.ticks -= kc0.ticks
	kc.passes -= kc0.passes
	kc.takes -= kc0.takes
	l := ph.layers
	if tbCycles > 0 {
		l["sim.us_per_cycle"] = float64(tbTime) / 1e3 / float64(tbCycles)
	}
	if kc.ticks > 0 {
		l["sim.vm_ops_per_cycle"] = float64(vmOps) / float64(kc.ticks)
		l["sim.ops_executed_per_static"] = l["sim.vm_ops_per_cycle"] / float64(static)
		l["sim.settle_passes_per_cycle"] = float64(kc.passes) / float64(kc.ticks)
		l["checkpoint.takes_per_kcycle"] = float64(kc.takes) / (float64(kc.ticks) / 1000)
	}
	l["checkpoint.state_kb"] = float64(stateBytes) / 1024
	if runCycles > 0 {
		l["core.run_self_us_per_kcycle"] = float64(rec.selfTime("core.run", "tb.run")) / 1e3 / (float64(runCycles) / 1000)
	}

}

// runHalt is run-2x2: episodes of a fresh 2x2 session running the compute
// kernel to halt through Session.Run, one checkpoint interval per call.
// Each episode's final state is checked against the ISS (a0 and checksum
// of every node) and flatsim (every node's registers and local store).
func runHalt(cfg coreCfg, seed int64, dur time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	var reg *obs.Registry
	if rec != nil {
		reg = obs.NewRegistry()
	}
	var vmOps uint64
	var static, stateBytes int
	for ep := 0; ph.simTime < dur; ep++ {
		iters := nodeIters(seed, ep, cfg.n)
		kernels := make([]kernel, cfg.n)
		images := make([][]uint64, cfg.n)
		for i, it := range iters {
			k, err := assembleKernel(it)
			if err != nil {
				return nil, err
			}
			kernels[i], images[i] = k, k.words
		}

		runtime.GC() // the previous episode's garbage is the benchmark's, not the set-up's
		t0 := time.Now()
		s, p, err := newSession(cfg, reg, testbench(cfg.n, images, rec))
		if err != nil {
			return nil, fmt.Errorf("episode %d set-up: %w", ep, err)
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())

		ops0 := p.Sim.Stats.Ops
		for halted := false; !halted; {
			c0 := p.Sim.Cycle()
			start, t := rec.now(), time.Now()
			err := s.Run("tb0", "p0", int(cfg.every))
			d := time.Since(t)
			rec.add("core.run", start, p.Sim.Cycle()-c0)
			ph.ops++
			ph.opTime += d
			ph.simTime += d
			ph.simCycles += p.Sim.Cycle() - c0
			ph.results = append(ph.results, ms(d))
			ph.verified = append(ph.verified, ms(d))
			if err != nil {
				ph.fail("episode %d cycle %d: run: %v", ep, c0, err)
				break
			}
			v, err := p.Sim.Out("halted_all")
			if err != nil {
				return nil, err
			}
			halted = v == 1
			if !halted && p.Sim.Cycle() > 2_000_000 {
				return nil, fmt.Errorf("episode %d: no halt by cycle %d", ep, p.Sim.Cycle())
			}
		}
		vmOps += p.Sim.Stats.Ops - ops0
		static, stateBytes = staticOps(p), p.Sim.StateBytes()

		if msg, err := checkHalted(p, cfg.n, kernels, images); err != nil {
			return nil, err
		} else if msg != "" {
			ph.fail("episode %d cycle %d iters %v: %s", ep, p.Sim.Cycle(), iters, msg)
		}
	}
	ph.rssMB = peakRSSMB()
	if rec != nil {
		simLayers(ph, rec, reg, kernelCounters{}, vmOps, static, stateBytes)
	}
	return ph, nil
}

// checkHalted compares a halted mesh with the ISS and with flatsim run to
// the same cycle; it returns "" when both agree.
func checkHalted(p *core.Pipe, n int, kernels []kernel, images [][]uint64) (string, error) {
	got, err := liveState(p.Sim, n)
	if err != nil {
		return "", err
	}
	var diffs []string
	for i, k := range kernels {
		a0, sum, err := issResult(k)
		if err != nil {
			return "", err
		}
		store, err := liveMem(p.Sim, storeName(n, i))
		if err != nil {
			return "", err
		}
		if got[i].Regs[10] != a0 || store[checksumWord] != sum {
			diffs = append(diffs, fmt.Sprintf("node %d a0=%#x checksum=%#x, ISS %#x %#x",
				i, got[i].Regs[10], store[checksumWord], a0, sum))
		}
	}
	ref, err := newFlatRef(pgas.Source(n), n, images)
	if err != nil {
		return "", err
	}
	if err := ref.advance(p.Sim.Cycle()); err != nil {
		return "", err
	}
	want, err := ref.state()
	if err != nil {
		return "", err
	}
	diffs = append(diffs, diffStates(want, got)...)
	return summarize(diffs), nil
}

func summarize(diffs []string) string {
	switch {
	case len(diffs) == 0:
		return ""
	case len(diffs) > 3:
		return fmt.Sprintf("%v ... (%d differences)", diffs[:3], len(diffs))
	}
	return fmt.Sprint(diffs)
}

// editCheck is one verified edit result awaiting its reference check.
type editCheck struct {
	idx   int
	set   editSet
	cycle uint64
	got   []nodeState
}

// editLoop is erd-4x4 and edit-1x1: a budget of seeded toggles of the
// pgas.Changes catalog, each applied with ApplyChange, followed by
// WaitVerification and a short seeded Run. Every verified state is checked
// afterwards against flatsim running the same edited source from cycle 0.
func editLoop(cfg coreCfg, seed int64, dur time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	var reg *obs.Registry
	if rec != nil {
		reg = obs.NewRegistry()
	}
	images, err := pgas.ComputeImages(cfg.n, 1<<30)
	if err != nil {
		return nil, err
	}
	// Set up several times, each from a collected heap, and time the loop
	// on the last session.
	var s *core.Session
	var p *core.Pipe
	for i := 0; i < cfg.setups; i++ {
		s, p = nil, nil
		runtime.GC()
		t0 := time.Now()
		if s, p, err = newSession(cfg, reg, testbench(cfg.n, images, rec)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := s.Run("tb0", "p0", cfg.warm); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
	}
	var kc0 kernelCounters
	if rec != nil {
		kc0 = readCounters(reg)
	}
	ops0 := p.Sim.Stats.Ops

	var (
		plan    = newEditPlan(seed)
		set     editSet
		checks  []editCheck
		failed  = map[int]bool{}
		acc     editAcc
		opFails = func(i int, format string, args ...any) {
			failed[i] = true
			ph.fail("edit %d: "+format, append([]any{i}, args...)...)
		}
	)
	for i, edits := 0, budget(dur, cfg.editsPerS); i < edits; i++ {
		st := plan.next(cfg.runMin, cfg.runMax)
		next := set.toggle(st.Change)
		src, err := next.source(cfg.n)
		if err != nil {
			return nil, err
		}
		target := p.Sim.Cycle()
		var from uint64
		if cp := p.Checkpoints.Select(target, cfg.lookback); cp != nil {
			from = cp.Cycle
		}

		start, t := rec.now(), time.Now()
		rep, err := s.ApplyChange(src)
		tA := time.Since(t)
		rec.add("core.apply", start, 0)
		ph.ops++
		if err != nil {
			ph.opTime += tA
			opFails(i, "toggle %s: ApplyChange: %v", pgas.Changes[st.Change].Name, err)
			continue // rolled back: the session stays on the old source
		}
		vstart := rec.now()
		rep.WaitVerification()
		tV := time.Since(t)
		rec.add("verify.wait", vstart, 0)
		set = next
		ph.results = append(ph.results, ms(tA))
		ph.verified = append(ph.verified, ms(tV))
		for _, h := range rep.Verifications {
			if h.Err != nil {
				opFails(i, "verification: %v", h.Err)
				break
			}
		}
		if rec != nil {
			acc.add(rep, tA, tV, target-from)
		}

		got, err := liveState(p.Sim, cfg.n)
		if err != nil {
			return nil, err
		}
		checks = append(checks, editCheck{idx: i, set: set, cycle: p.Sim.Cycle(), got: got})

		c0 := p.Sim.Cycle()
		rstart, t2 := rec.now(), time.Now()
		err = s.Run("tb0", "p0", st.RunCycles)
		tR := time.Since(t2)
		rec.add("core.run", rstart, p.Sim.Cycle()-c0)
		ph.opTime += tV + tR
		ph.simTime += tR
		ph.simCycles += p.Sim.Cycle() - c0
		if err != nil && !failed[i] {
			opFails(i, "run: %v", err)
		}
	}
	ph.rssMB = peakRSSMB()
	if rec != nil {
		simLayers(ph, rec, reg, kc0, p.Sim.Stats.Ops-ops0, staticOps(p), p.Sim.StateBytes())
		acc.layers(ph.layers, readCounters(reg).swapped-kc0.swapped)
	}

	lines, err := checkEdits(cfg.n, images, checks)
	if err != nil {
		return nil, err
	}
	for _, c := range checks {
		if msg := lines[c.idx]; msg != "" && !failed[c.idx] {
			opFails(c.idx, "edit set %06b at cycle %d disagrees with flatsim: %s", c.set, c.cycle, msg)
		}
	}
	return ph, nil
}

// checkEdits runs one flatsim reference per distinct edit set, advancing it
// forward through the cycles at which that set was checked, on two
// workers. It returns a mismatch summary per edit index ("" = agrees).
func checkEdits(n int, images [][]uint64, checks []editCheck) (map[int]string, error) {
	bySet := map[editSet][]editCheck{}
	var sets []editSet
	for _, c := range checks {
		if bySet[c.set] == nil {
			sets = append(sets, c.set)
		}
		bySet[c.set] = append(bySet[c.set], c)
	}
	var (
		mu    sync.Mutex
		out   = map[int]string{}
		first error
		wg    sync.WaitGroup
		work  = make(chan editSet)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for set := range work {
				res, err := checkSet(n, images, set, bySet[set])
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				for k, v := range res {
					out[k] = v
				}
				mu.Unlock()
			}
		}()
	}
	for _, set := range sets {
		work <- set
	}
	close(work)
	wg.Wait()
	return out, first
}

func checkSet(n int, images [][]uint64, set editSet, cs []editCheck) (map[int]string, error) {
	src, err := set.source(n)
	if err != nil {
		return nil, err
	}
	ref, err := newFlatRef(src, n, images)
	if err != nil {
		return nil, err
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].cycle < cs[j].cycle })
	out := make(map[int]string, len(cs))
	for _, c := range cs {
		if err := ref.advance(c.cycle); err != nil {
			return nil, err
		}
		want, err := ref.state()
		if err != nil {
			return nil, err
		}
		out[c.idx] = summarize(diffStates(want, c.got))
	}
	return out, nil
}

// editAcc sums what the ChangeReports of a traced edit loop say.
type editAcc struct {
	edits, behavioural          int
	parse, elab, codegen        time.Duration
	swap, reload, reexec, total time.Duration
	verify                      time.Duration
	compiled, hits              int
	reexecCycles                uint64
	segments, handles, refined  int
}

func (a *editAcc) add(rep *core.ChangeReport, tA, tV time.Duration, reexecCycles uint64) {
	a.edits++
	cs := rep.CompileStats
	a.parse += cs.ParseTime
	a.elab += cs.ElabTime
	a.codegen += cs.CompileTime
	a.compiled += cs.Compiled
	a.hits += cs.CacheHits
	a.total += rep.Total
	a.verify += tV - tA
	if rep.NoChange {
		return
	}
	a.behavioural++
	a.swap += rep.SwapTime
	a.reload += rep.ReloadTime
	a.reexec += rep.ReExecTime
	a.reexecCycles += reexecCycles
	for _, h := range rep.Verifications {
		a.handles++
		if h.Result != nil {
			a.segments += len(h.Result.Segments)
		}
		if h.Refined {
			a.refined++
		}
	}
}

func (a *editAcc) layers(l map[string]float64, swappedInstances uint64) {
	if a.edits == 0 {
		return
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(a.edits) }
	l["livecompiler.parse_ms"] = per(a.parse)
	l["livecompiler.elab_ms"] = per(a.elab)
	l["livecompiler.codegen_ms"] = per(a.codegen)
	l["livecompiler.compiled_per_edit"] = float64(a.compiled) / float64(a.edits)
	if a.compiled+a.hits > 0 {
		l["livecompiler.cache_hit_frac"] = float64(a.hits) / float64(a.compiled+a.hits)
	}
	l["sim.swap_ms"] = per(a.swap)
	l["sim.swapped_instances"] = float64(swappedInstances) / float64(a.edits)
	l["checkpoint.reload_ms"] = per(a.reload)
	l["core.reexec_ms"] = per(a.reexec)
	l["core.apply_self_ms"] = per(a.total - a.parse - a.elab - a.codegen - a.swap - a.reload - a.reexec)
	l["verify.ms_per_edit"] = per(a.verify)
	if a.behavioural > 0 {
		l["core.reexec_cycles"] = float64(a.reexecCycles) / float64(a.behavioural)
	}
	if a.handles > 0 {
		l["verify.segments_per_edit"] = float64(a.segments) / float64(a.handles)
		l["verify.refined_frac"] = float64(a.refined) / float64(a.handles)
	}
}
