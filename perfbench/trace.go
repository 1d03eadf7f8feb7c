package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"livesim/internal/core"
	"livesim/internal/pgas"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer (nanoseconds since the recorder started). Parents are implied by
// containment: a testbench span inside a core.run span is its child.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cycles uint64 `json:"cycles,omitempty"`
}

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add closes a span that started at start (a value from now).
func (r *recorder) add(name string, start int64, cycles uint64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Cycles: cycles})
	r.mu.Unlock()
}

func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// total sums the durations and cycles of the spans with a name.
func (r *recorder) total(name string) (time.Duration, uint64) {
	var d time.Duration
	var c uint64
	for _, s := range r.named(name) {
		d += time.Duration(s.End - s.Start)
		c += s.Cycles
	}
	return d, c
}

// selfTime is the summed duration of the parent spans minus the part of
// them covered by child spans.
func (r *recorder) selfTime(parent, child string) time.Duration {
	ps, cs := r.named(parent), r.named(child)
	var self time.Duration
	j := 0
	for _, p := range ps {
		covered, hi := int64(0), p.Start
		for j < len(cs) && cs[j].Start < p.Start {
			j++
		}
		for k := j; k < len(cs) && cs[k].Start < p.End; k++ {
			s, e := max(cs[k].Start, hi), min(cs[k].End, p.End)
			if e > s {
				covered += e - s
				hi = e
			}
		}
		self += time.Duration(p.End - p.Start - covered)
	}
	return self
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTB is the testbench the benchmark supplies to core sessions: the
// PGAS testbench with a span around each Run call, so the traced run can
// split simulation time from the session's own time.
type timedTB struct {
	pgas.Testbench
	rec *recorder
}

func (tb *timedTB) Run(d *core.Driver, cycles int) error {
	start, c0 := tb.rec.now(), d.Cycle()
	err := tb.Testbench.Run(d, cycles)
	tb.rec.add("tb.run", start, d.Cycle()-c0)
	return err
}

// testbench returns the factory registered as tb0: the plain PGAS
// testbench untraced, the timed wrapper when tracing.
func testbench(n int, images [][]uint64, rec *recorder) core.TestbenchFactory {
	if rec == nil {
		return pgas.NewTestbench(n, images)
	}
	return func() core.Testbench { return &timedTB{Testbench: pgas.Testbench{N: n, Images: images}, rec: rec} }
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
