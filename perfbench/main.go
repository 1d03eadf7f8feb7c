// Command perfbench is the repository's benchmark. It drives seeded
// workloads through the public entry points — core.Session, and a
// server.Server behind a gateway.Gateway on unix sockets — times only the
// calls into the program, and checks every timed result against an
// independent reference: flatsim (the flattened simulator) or the RV64I
// ISS. Run it from the repository root:
//
//	bash perfbench/run.sh --workload erd-4x4 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures half the time untraced and half traced, and reports the
// per-layer metrics of the traced half. The last line of standard output
// is the JSON result; the lines before it are the same figures for people.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one seeded input set of the benchmark.
type workload struct {
	name string
	run  func(seed int64, dur time.Duration, rec *recorder) (*phase, error)
}

var (
	runCfg  = coreCfg{n: 4, every: 500, lookback: 500}
	erdCfg  = coreCfg{n: 16, every: 500, lookback: 500, warm: 2000, runMin: 150, runMax: 250, setups: 7, editsPerS: 3}
	editCfg = coreCfg{n: 1, every: 50, lookback: 50, warm: 2000, runMin: 1, runMax: 10, setups: 11, editsPerS: 200}

	workloads = []workload{
		{"run-2x2", func(s int64, d time.Duration, r *recorder) (*phase, error) { return runHalt(runCfg, s, d, r) }},
		{"erd-4x4", func(s int64, d time.Duration, r *recorder) (*phase, error) { return editLoop(erdCfg, s, d, r) }},
		{"edit-1x1", func(s int64, d time.Duration, r *recorder) (*phase, error) { return editLoop(editCfg, s, d, r) }},
		{"serve-1x1", serveLoop},
	}
)

// metric is one named figure of the result.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the system sees, measured on every
// workload over that workload's own operations (see README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_khz", "kHz"},
	{"result_ms_p50", "ms"},
	{"result_ms_p90", "ms"},
	{"verified_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the traced run's figures, one group per module layer.
var perLayer = []metric{
	{"sim.us_per_cycle", "us"},
	{"sim.vm_ops_per_cycle", "count"},
	{"sim.ops_executed_per_static", "ratio"},
	{"sim.settle_passes_per_cycle", "ratio"},
	{"sim.swap_ms", "ms"},
	{"sim.swapped_instances", "count"},
	{"livecompiler.parse_ms", "ms"},
	{"livecompiler.elab_ms", "ms"},
	{"livecompiler.codegen_ms", "ms"},
	{"livecompiler.compiled_per_edit", "count"},
	{"livecompiler.cache_hit_frac", "ratio"},
	{"checkpoint.reload_ms", "ms"},
	{"checkpoint.takes_per_kcycle", "count"},
	{"checkpoint.state_kb", "KB"},
	{"core.run_self_us_per_kcycle", "us"},
	{"core.reexec_ms", "ms"},
	{"core.reexec_cycles", "count"},
	{"core.apply_self_ms", "ms"},
	{"verify.ms_per_edit", "ms"},
	{"verify.segments_per_edit", "count"},
	{"verify.refined_frac", "ratio"},
	{"server.ping_ms_p50", "ms"},
	{"gateway.hop_ms_p50", "ms"},
	{"server.read_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.apply_ms_p50", "ms"},
	{"server.rtt_ms_p99", "ms"},
	{"wal.bytes_per_mutation", "B"},
	{"server.rejects", "count"},
	{"failed_ops_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

// unaccountedShare is the stated share of the untraced end-to-end time
// that the traced layer times may leave unaccounted, either way.
const unaccountedShare = 0.15

// probeSeconds is how long the traced run spends on a probe workload that
// exercises the layers its own workload does not reach.
const probeSeconds = 1.5

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run-2x2, erd-4x4, edit-1x1 or serve-1x1")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(seconds * float64(time.Second))
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	ctx := runContext(name, seed)

	res := result{Correct: true, Metrics: map[string]value{}}
	var ph, base *phase
	if !traced {
		var err error
		if ph, err = wl.run(seed, dur, nil); err != nil {
			return err
		}
		res.add(ph)
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{endToEndValue(ph, m.name), m.unit}
		}
	} else {
		var err error
		if base, err = wl.run(seed, dur/2, nil); err != nil {
			return err
		}
		rec := newRecorder()
		if ph, err = wl.run(seed, dur/2, rec); err != nil {
			return err
		}
		res.add(base)
		res.add(ph)
		layers := ph.layers
		overheadAndRemainder(name, base, ph, layers)
		if err := writeTrace(rec, name, seed); err != nil {
			return err
		}
		for _, probe := range []string{"edit-1x1", "serve-1x1"} {
			if missing(layers) && probe != name {
				if err := fillFromProbe(probe, seed, layers); err != nil {
					return err
				}
			}
		}
		layers["failed_ops_frac"] = float64(res.Failed) / float64(res.Attempted)
		for _, m := range perLayer {
			res.Metrics[m.name] = value{layers[m.name], m.unit}
		}
		ctx["tracing_overhead_frac"] = layers["trace.overhead_frac"]
	}

	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	ctxJSON, _ := json.Marshal(ctx)
	fmt.Fprintf(out, "context %s\n", ctxJSON)
	if traced {
		u := res.Metrics["trace.unaccounted_frac"].Value
		verdict := "within"
		if u > unaccountedShare || u < -unaccountedShare {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(out, "trace self-consistency: layers leave %.1f%% of the untraced time unaccounted, %s the stated share of %.0f%%\n",
			100*u, verdict, 100*unaccountedShare)
	}
	failures := ph.mismatches
	if traced {
		failures = nil
		for _, f := range base.mismatches {
			failures = append(failures, "half=untraced "+f)
		}
		for _, f := range ph.mismatches {
			failures = append(failures, "half=traced "+f)
		}
	}
	if err := listFailures(out, name, seed, failures); err != nil {
		return err
	}
	fmt.Fprintf(out, "operations attempted=%d failed=%d failed_ops_frac=%.4f samples=%d setups=%d max_rss_mb=%.1f\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(ph.results), len(ph.setups), ph.rssMB)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// shownFailures is how many failed operations are listed on standard
// output; the complete list goes to a file under .bench_build.
const shownFailures = 20

func listFailures(out io.Writer, name string, seed int64, failures []string) error {
	if len(failures) == 0 {
		return nil
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("failures-%s-seed%d.txt", name, seed))
	var all strings.Builder
	for i, f := range failures {
		line := fmt.Sprintf("failed workload=%s seed=%d %s\n", name, seed, f)
		all.WriteString(line)
		if i < shownFailures {
			io.WriteString(out, line)
		}
	}
	if len(failures) > shownFailures {
		fmt.Fprintf(out, "... %d more failed operations listed in %s\n", len(failures)-shownFailures, path)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(all.String()), 0o644)
}

func (r *result) add(ph *phase) {
	r.Attempted += ph.ops
	r.Failed += ph.failed
}

func endToEndValue(ph *phase, name string) float64 {
	switch name {
	case "setup_s":
		return quantile(ph.setups, 0.5)
	case "run_khz":
		return float64(ph.simCycles) / ph.simTime.Seconds() / 1000
	case "result_ms_p50":
		return quantile(ph.results, 0.5)
	case "result_ms_p90":
		return quantile(ph.results, 0.9)
	case "verified_ms_p50":
		return quantile(ph.verified, 0.5)
	case "ops_per_s":
		return float64(ph.ops) / ph.opTime.Seconds()
	}
	panic("unknown metric " + name)
}

// overheadAndRemainder compares the traced half with the untraced half:
// the tracing overhead on the workload's headline figure, and the share
// of the untraced end-to-end time that the traced layer times leave
// unaccounted (negative when tracing made the layers slower).
func overheadAndRemainder(name string, base, tr *phase, l map[string]float64) {
	switch name {
	case "run-2x2":
		baseUS := base.simTime.Seconds() * 1e6 / float64(base.simCycles)
		trUS := tr.simTime.Seconds() * 1e6 / float64(tr.simCycles)
		l["trace.overhead_frac"] = trUS/baseUS - 1
		l["trace.unaccounted_frac"] = 1 - (l["sim.us_per_cycle"]+l["core.run_self_us_per_kcycle"]/1000)/baseUS
	case "erd-4x4", "edit-1x1":
		baseMS := mean(base.results)
		l["trace.overhead_frac"] = mean(tr.results)/baseMS - 1
		layers := 0.0
		for _, k := range []string{"livecompiler.parse_ms", "livecompiler.elab_ms", "livecompiler.codegen_ms",
			"sim.swap_ms", "checkpoint.reload_ms", "core.reexec_ms", "core.apply_self_ms"} {
			layers += l[k]
		}
		l["trace.unaccounted_frac"] = 1 - layers/baseMS
	case "serve-1x1":
		baseMS := mean(base.results)
		l["trace.overhead_frac"] = mean(tr.results)/baseMS - 1
		// Client time outside any request: the loop's own overhead.
		busy := 0.0
		for _, r := range tr.results {
			busy += r
		}
		l["trace.unaccounted_frac"] = 1 - busy/(tr.opTime.Seconds()*1e3)
	}
}

// missing reports whether any per-layer metric is still unmeasured.
func missing(l map[string]float64) bool {
	for _, m := range perLayer {
		if _, ok := l[m.name]; !ok && m.name != "failed_ops_frac" {
			return true
		}
	}
	return false
}

// fillFromProbe runs a short traced probe workload and takes from it the
// layer metrics the traced workload did not measure itself.
func fillFromProbe(probe string, seed int64, l map[string]float64) error {
	for _, w := range workloads {
		if w.name != probe {
			continue
		}
		ph, err := w.run(seed, time.Duration(probeSeconds*float64(time.Second)), newRecorder())
		if err != nil {
			return fmt.Errorf("probe %s: %w", probe, err)
		}
		for k, v := range ph.layers {
			if _, ok := l[k]; !ok && !strings.HasPrefix(k, "trace.") {
				l[k] = v
			}
		}
	}
	return nil
}

func writeTrace(rec *recorder, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
}

// peakRSSMB is the process's peak resident memory so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runContext records what a result depends on besides the code.
func runContext(name string, seed int64) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitHead(),
		"source":     sourceDigest(),
	}
}

// gitHead reads the checked-out commit without running git; a checkout
// without .git reports "none" and is identified by its source digest.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest is a SHA-256 over the module's Go sources and go.mod.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
