package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/pgas"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// clientLog is what the closed-loop client measured.
type clientLog struct {
	name      string
	set       editSet
	setups    []float64
	rtt       []float64 // ms, every timed request
	byKind    [4][]float64
	direct    []float64     // probe phase: peek sent straight to the backend
	gwPeek    []float64     // probe phase: the same peek through the gateway
	ping      []float64     // probe phase: ping sent straight to the backend
	runCycles uint64        // cycles advanced by acked run requests
	runTime   time.Duration // their round trips
	mutations int           // acked journaled mutations of the final session
	failures  []string
	requests  int
	loopTime  time.Duration
}

// serveLoop is serve-1x1: an in-process server with a state dir behind an
// in-process gateway, both on unix sockets, and one closed-loop client
// that owns a 1x1 PGAS session and sends its seeded mix of peek, stats,
// run and apply requests through the gateway. One client keeps a single
// request in flight: on a host with few CPUs, a second client's applies
// (hundreds of milliseconds of re-execution and verification) would share
// the CPUs with this client's reads, and the round trips would measure
// that overlap rather than the request path. The session's final state
// is checked against flatsim running the final source.
func serveLoop(seed int64, dur time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cwd, ".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Unix socket paths are short-lived and length-limited: bind them
	// relative to the run directory.
	if err := os.Chdir(dir); err != nil {
		return nil, err
	}
	defer os.Chdir(cwd)

	stateDir := filepath.Join(dir, "state")
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		StateDir:    stateDir,
		Metrics:     reg,
		SlowRequest: time.Second, // livesimd's default
		// Pin the disk-pressure ladder at ok so the journal path measured
		// does not depend on the host's free space.
		DiskProbe: func(string) (uint64, uint64, error) { return 1 << 40, 1 << 41, nil },
	})
	var served sync.WaitGroup
	ln, err := net.Listen("unix", "d.sock")
	if err != nil {
		return nil, err
	}
	served.Add(1)
	go func() { defer served.Done(); srv.Serve(ln) }()
	gw, err := gateway.New(gateway.Config{Backends: []gateway.BackendSpec{{Addr: "unix:d.sock"}}})
	if err != nil {
		return nil, err
	}
	gln, err := net.Listen("unix", "g.sock")
	if err != nil {
		return nil, err
	}
	served.Add(1)
	go func() { defer served.Done(); gw.Serve(gln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			gw.Shutdown(ctx)
			srv.Shutdown(ctx)
			served.Wait()
		})
	}
	defer stop()
	if err := waitPlaceable("unix:g.sock"); err != nil {
		return nil, err
	}

	l := &clientLog{}
	cl, err := client.Dial("unix:g.sock")
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := setupClient(cl, l); err != nil {
		return nil, err
	}
	if err := runClient(cl, l, seed, budget(dur, serveRequestsPerS), rec); err != nil {
		return nil, err
	}
	ph.rssMB = peakRSSMB()
	if rec != nil {
		if err := probeDirect(cl, l); err != nil {
			return nil, err
		}
	}
	cl.Close() // before any shutdown, which waits for open connections

	ph.setups = l.setups
	ph.results = l.rtt
	ph.verified = l.rtt
	ph.ops = l.requests
	ph.opTime = l.loopTime
	ph.simCycles, ph.simTime = l.runCycles, l.runTime
	for _, f := range l.failures {
		ph.fail("%s", f)
	}
	if msg, err := checkServed(srv, l); err != nil {
		return nil, err
	} else if msg != "" {
		ph.fail("session %s final state (edit set %06b) disagrees with flatsim: %s", l.name, l.set, msg)
	}
	if rec == nil {
		return ph, nil
	}
	lm := ph.layers
	lm["server.read_ms_p50"] = quantile(append(append([]float64(nil), l.byKind[reqPeek]...), l.byKind[reqStats]...), 0.5)
	lm["server.run_ms_p50"] = quantile(l.byKind[reqRun], 0.5)
	lm["server.apply_ms_p50"] = quantile(l.byKind[reqApply], 0.5)
	lm["server.rtt_ms_p99"] = quantile(l.rtt, 0.99)
	lm["server.ping_ms_p50"] = quantile(l.ping, 0.5)
	lm["gateway.hop_ms_p50"] = quantile(l.gwPeek, 0.5) - quantile(l.direct, 0.5)
	var rejects uint64
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "server_") && strings.HasSuffix(name, "_rejects") {
			rejects += v
		}
	}
	rejects += snap.Gauges["server_admit_rejects"]
	lm["server.rejects"] = float64(rejects)
	// The journal grows with group commit in the background: shut down
	// first (which syncs it), then measure.
	stop()
	var walBytes int64
	wals, _ := filepath.Glob(filepath.Join(stateDir, "*.wal"))
	for _, w := range wals {
		if fi, err := os.Stat(w); err == nil {
			walBytes += fi.Size()
		}
	}
	if l.mutations > 0 {
		lm["wal.bytes_per_mutation"] = float64(walBytes) / float64(l.mutations)
	}
	return ph, nil
}

// waitPlaceable blocks until the gateway accepts a create, i.e. its
// health probe has found the backend.
func waitPlaceable(addr string) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.Do(&server.Request{Session: "probe", Verb: "create", PGAS: 1})
		if err == nil && resp.OK {
			_, err = cl.Do(&server.Request{Session: "probe", Verb: "close"})
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never placed a session: %v %+v", err, resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func do(cl *client.Client, req *server.Request) error {
	resp, err := cl.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", req.Verb, err)
	}
	if !resp.OK {
		return fmt.Errorf("%s: %s (%s)", req.Verb, resp.Error, resp.Code)
	}
	return nil
}

// serveSetups is how many times the client sets up its session, for the
// median set-up time; the last session is the one the loop drives.
const serveSetups = 11

// setupClient creates the client's session serveSetups times, each from a
// collected heap, closing all but the last.
func setupClient(cl *client.Client, l *clientLog) error {
	for k := 0; k < serveSetups; k++ {
		l.name = fmt.Sprintf("s%d", k)
		runtime.GC()
		t0 := time.Now()
		if err := do(cl, &server.Request{Session: l.name, Verb: "create", PGAS: 1, CheckpointEvery: 500}); err != nil {
			return err
		}
		if err := do(cl, &server.Request{Session: l.name, Verb: "instpipe", Args: []string{"p0"}}); err != nil {
			return err
		}
		if err := do(cl, &server.Request{Session: l.name, Verb: "run", Args: []string{"tb0", "p0", "2000"}}); err != nil {
			return err
		}
		l.setups = append(l.setups, time.Since(t0).Seconds())
		if k < serveSetups-1 {
			if err := do(cl, &server.Request{Session: l.name, Verb: "close"}); err != nil {
				return err
			}
		}
	}
	l.mutations = 3 // boot record, instpipe, warm-up run
	return nil
}

// peekArgs is the register every peek of the mix reads.
var peekArgs = []string{"p0", "top.n0.u_core.u_if.pc_r"}

// serveRequestsPerS is the served loop's budget: requests per second of
// --seconds.
const serveRequestsPerS = 1000

// runClient runs the client's seeded decks in a closed loop until it has
// sent n requests. Its applies toggle catalog entries in the edit loops'
// apply/revert pairs, dealt from the same kind of shuffled decks, so every
// run applies each entry about equally often.
func runClient(cl *client.Client, l *clientLog, seed int64, n int, rec *recorder) error {
	plan := newEditPlan(seed)
	loop := time.Now()
	for d := 0; l.requests < n; d++ {
		for _, q := range requestDeck(seed, d) {
			if l.requests == n {
				break
			}
			req := &server.Request{Session: l.name, Verb: reqKindName[q.Kind]}
			next := l.set
			switch q.Kind {
			case reqPeek:
				req.Args = peekArgs
			case reqStats:
				req.Args = []string{"json"}
			case reqRun:
				req.Args = []string{"tb0", "p0", strconv.Itoa(q.Cycles)}
			case reqApply:
				next = l.set.toggle(plan.next(0, 0).Change)
				src, err := next.source(1)
				if err != nil {
					return err
				}
				req.Files = src.Files
			}
			start, t := rec.now(), time.Now()
			resp, err := cl.Do(req)
			rtt := time.Since(t)
			rec.add("client."+req.Verb, start, 0)
			l.requests++
			l.rtt = append(l.rtt, ms(rtt))
			l.byKind[q.Kind] = append(l.byKind[q.Kind], ms(rtt))
			if err != nil || !resp.OK {
				if err == nil {
					err = fmt.Errorf("%s (%s)", resp.Error, resp.Code)
				}
				l.failures = append(l.failures, fmt.Sprintf("request %d %s: %v", l.requests, req.Verb, err))
				continue
			}
			switch q.Kind {
			case reqRun:
				l.runCycles += uint64(q.Cycles)
				l.runTime += rtt
				l.mutations++
			case reqApply:
				l.set = next
				l.mutations++
			}
		}
	}
	l.loopTime = time.Since(loop)
	return nil
}

// probeRounds is how many probe rounds the traced run makes.
const probeRounds = 300

// probeDirect runs after the client loop has ended, so its requests
// neither compete with the loop nor fall inside its timings. Each round
// times a ping and the mix's peek sent straight to the backend, and the
// same peek through the gateway: the two peeks differ only by the hop.
func probeDirect(gw *client.Client, l *clientLog) error {
	direct, err := client.Dial("unix:d.sock")
	if err != nil {
		return err
	}
	defer direct.Close()
	timed := func(cl *client.Client, req *server.Request, into *[]float64) error {
		t := time.Now()
		if err := do(cl, req); err != nil {
			return err
		}
		*into = append(*into, ms(time.Since(t)))
		return nil
	}
	peek := &server.Request{Session: l.name, Verb: "peek", Args: peekArgs}
	for i := 0; i < probeRounds; i++ {
		if err := timed(direct, &server.Request{Verb: "ping"}, &l.ping); err != nil {
			return err
		}
		if err := timed(direct, peek, &l.direct); err != nil {
			return err
		}
		if err := timed(gw, peek, &l.gwPeek); err != nil {
			return err
		}
	}
	return nil
}

// checkServed compares the client's session, read in-process once the loop
// is over, with flatsim running the session's final source to the same
// cycle.
func checkServed(srv *server.Server, l *clientLog) (string, error) {
	sess := srv.Session(l.name)
	if sess == nil {
		return "", fmt.Errorf("session %s is gone", l.name)
	}
	sess.Quiesce()
	p, ok := sess.Pipe("p0")
	if !ok {
		return "", fmt.Errorf("session %s has no pipe", l.name)
	}
	got, err := liveState(p.Sim, 1)
	if err != nil {
		return "", err
	}
	images, err := pgas.ComputeImages(1, 1<<30)
	if err != nil {
		return "", err
	}
	src, err := l.set.source(1)
	if err != nil {
		return "", err
	}
	ref, err := newFlatRef(src, 1, images)
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
	return summarize(diffStates(want, got)), nil
}
