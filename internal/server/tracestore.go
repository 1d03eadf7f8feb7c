package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"livesim/internal/obs"
)

// Fleet tracing and crash forensics glue: the `spans` verb exposing this
// process's span store (the per-backend half of the gateway's `trace
// <id>` assembly), the blackbox trigger that dumps the flight recorder
// on abnormal exits, and the periodic flusher whose on-disk copy is
// what survives a SIGKILL.

// spansVerb serves the span store over the wire. With a trace id
// argument it returns that trace's spans (Data: SpanDump, Output: the
// locally-assembled tree); without one it returns the store's index.
func (s *Server) spansVerb(req *Request) *Response {
	if s.store == nil {
		return errResp(req, CodeBadRequest, fmt.Errorf("span store disabled"))
	}
	if len(req.Args) > 1 {
		return errResp(req, CodeBadRequest, fmt.Errorf("usage: spans [trace-id]"))
	}
	if len(req.Args) == 1 {
		trace := req.Args[0]
		recs := s.store.Query(trace)
		dump := SpanDump{Proc: s.cfg.ProcName, Spans: recs}
		data, _ := json.Marshal(dump)
		var out strings.Builder
		if len(recs) == 0 {
			fmt.Fprintf(&out, "  no spans stored for trace %s\n", trace)
		} else {
			obs.WriteSpanTree(&out, obs.BuildSpanTree(recs))
		}
		return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
	}
	sums := s.store.Traces(64)
	data, _ := json.Marshal(sums)
	var out strings.Builder
	fmt.Fprintf(&out, "  %-16s %-20s %6s %10s %-5s %s\n", "TRACE", "ROOT", "SPANS", "DUR", "OK", "STATE")
	for _, t := range sums {
		state := "active"
		if t.Done {
			state = "done"
		}
		if t.Dropped > 0 {
			state += fmt.Sprintf(" (%d dropped)", t.Dropped)
		}
		fmt.Fprintf(&out, "  %-16s %-20s %6d %10s %-5v %s\n",
			t.Trace, t.Root, t.Spans, time.Duration(t.DurUS)*time.Microsecond, t.OK, state)
	}
	if len(sums) == 0 {
		out.WriteString("  (no traces stored)\n")
	}
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// blackbox records an abnormal event (always) and dumps the flight
// recorder to BlackboxDir (rate-limited to one dump per second so a
// flapping breaker cannot grind the disk). Callers: panic recovery,
// self-fence, quarantine trip, watchdog cancel, drain-stuck.
func (s *Server) blackbox(reason, session, trace, msg string) {
	s.eventT(reason, session, trace, msg)
	if s.flight == nil || s.cfg.BlackboxDir == "" {
		return
	}
	now := time.Now()
	last := s.blackboxTS.Load()
	if now.UnixNano()-last < int64(time.Second) || !s.blackboxTS.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	path := obs.BlackboxPath(s.cfg.BlackboxDir, now)
	if err := s.flight.DumpToFile(path, reason); err != nil {
		s.log.Error("blackbox dump failed", obs.Str("err", err.Error()), obs.Str("path", path))
		return
	}
	s.reg.Counter("server_blackbox_dumps").Inc()
	s.log.Warn("blackbox dumped", obs.Str("reason", reason), obs.Str("path", path))
}

// blackboxFlusher periodically rewrites this boot's blackbox file while
// the ring is dirty. Trigger dumps cover crashes the process can see;
// the flusher's last write is the record for the ones it can't
// (SIGKILL, OOM kill, kernel panic). Stops with the janitor: both
// Shutdown and Halt close janitorStop exactly once, then wait on
// flusherWG so the final dump lands before they return.
func (s *Server) blackboxFlusher() {
	defer s.flusherWG.Done()
	tick := time.NewTicker(s.cfg.BlackboxFlushEvery)
	defer tick.Stop()
	var flushed uint64
	flush := func() {
		if w := s.flight.Writes(); w != flushed {
			if err := s.flight.DumpToFile(s.bootBlackbox, "periodic"); err == nil {
				flushed = w
			}
		}
	}
	// Write immediately so the file exists from boot — an early SIGKILL
	// must still leave an (empty but parseable) black box behind.
	s.flight.DumpToFile(s.bootBlackbox, "periodic")
	for {
		select {
		case <-s.janitorStop:
			flush()
			return
		case <-tick.C:
			flush()
		}
	}
}
