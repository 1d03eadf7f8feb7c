// Package server is livesimd's engine: it hosts many independent
// core.Sessions and serves them to concurrent clients over TCP or unix
// sockets with a newline-delimited JSON protocol.
//
// Each hosted session owns a dedicated worker goroutine behind a bounded
// request queue, so all operations on one session are serialized while
// different sessions run fully in parallel. A full queue rejects the
// request immediately with ErrBackpressure (code "backpressure") instead
// of blocking the connection reader — a hot session never wedges the
// accept path or other clients. Requests carry a server-wide deadline;
// panics anywhere in request handling are converted to error responses
// the way internal/core's health layer converts testbench panics, so one
// poisoned request cannot take the daemon down. Idle sessions are
// evicted (checkpointed first when dirty), and a graceful drain — wired
// to SIGTERM in cmd/livesimd — stops accepting, finishes in-flight
// requests, checkpoints every dirty session through the atomic
// checkpoint writer and reports what it saved.
//
// The protocol is one JSON object per line in each direction. Requests
// name a verb: either a server verb (create, close, sessions, ping,
// metricz, subscribe, help) or any session verb from internal/command —
// run, apply, profile, stats and the rest of the same table the
// interactive shell dispatches into, so the wire vocabulary and `help`
// can never drift from the shell. Responses echo
// the request id; `subscribe` additionally streams span events (objects
// with an "ev" field, no "id") onto the connection as the watched
// session works.
package server

import (
	"encoding/json"
	"errors"

	"livesim/internal/govern"
	"livesim/internal/obs"
)

// Request is one client → server message.
type Request struct {
	// ID is echoed on the response so clients can pipeline requests.
	ID uint64 `json:"id"`
	// Session names the target session. Required for session verbs and
	// create/close/subscribe (empty on subscribe = server-level spans).
	Session string `json:"session,omitempty"`
	// Verb is a server verb or a session verb from internal/command.
	Verb string `json:"verb"`
	// TraceID correlates this request across process boundaries: the
	// client stamps it (see client.Do), the server opens its request span
	// with it, and the session's live-loop spans inherit it — one hot
	// reload reads as a single span tree from client call to verify
	// completion. Empty means "server, mint one".
	TraceID string `json:"trace,omitempty"`
	// ParentSpan is the sid of the caller's span this request happened
	// under (the gateway stamps its forward span's sid here). The
	// receiver's request span parents on it, which is what joins
	// per-process span trees into one fleet-wide tree. Empty = root.
	ParentSpan string `json:"pspan,omitempty"`
	// Args are the verb's positional arguments, shell-style.
	Args []string `json:"args,omitempty"`
	// Files carries design source text: the full design for create (dir
	// flavour) and the edited snapshot for apply.
	Files map[string]string `json:"files,omitempty"`
	// Top is the top-level module for a files-based create (default "top").
	Top string `json:"top,omitempty"`
	// PGAS selects the built-in n-node mesh demo for create.
	PGAS int `json:"pgas,omitempty"`
	// CheckpointEvery overrides the created session's checkpoint interval.
	CheckpointEvery uint64 `json:"ckpt_every,omitempty"`
	// Blob carries a migration transfer image (internal/transfer framing)
	// for the import verb, or a replication batch (internal/replica
	// framing) for replapply. JSON base64-encodes it on the wire.
	Blob []byte `json:"blob,omitempty"`
	// Epoch is the replication fencing token. The gateway stamps it on
	// forwarded mutations so a backend holding a different epoch rejects
	// them (split-brain protection); replication seeds, batches and the
	// promote verb carry the epoch they operate under. Zero means
	// unstamped (direct clients) and is never checked.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Response is one server → client reply.
type Response struct {
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Output is the verb's human-readable output (what the shell would
	// have printed), including any $display text the operation produced.
	Output string `json:"output,omitempty"`
	// Error and Code are set when OK is false; Code is one of the Code*
	// constants so clients can react without parsing Error text.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// RetryAfterMs accompanies CodeOverloaded: the server's suggested
	// backoff before retrying, sized to how far over budget the daemon
	// is. Clients add jitter (see client.Do) so rejected callers don't
	// retry in lockstep.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// MovedTo accompanies CodeMoved: the address ("unix:/path" or
	// "host:port") now hosting the session this request named. Clients
	// with FollowMoves enabled redial there and resend — a moved
	// rejection always happens before the verb executes, so the resend
	// is safe for any verb.
	MovedTo string `json:"moved_to,omitempty"`
	// Data carries structured payloads (stats snapshots, session lists).
	Data json.RawMessage `json:"data,omitempty"`
}

// Typed error codes carried in Response.Code.
const (
	// CodeBackpressure: the session's request queue was full.
	CodeBackpressure = "backpressure"
	// CodeTimeout: the request missed its deadline (still executed if it
	// had already reached the worker; the result was discarded).
	CodeTimeout = "timeout"
	// CodeDraining: the server is shutting down and takes no new work.
	CodeDraining = "draining"
	// CodePanic: request handling panicked and was recovered.
	CodePanic = "panic"
	// CodeBadRequest: malformed verb, arguments or session name.
	CodeBadRequest = "bad_request"
	// CodeNoSession: the named session does not exist (or already does,
	// for create).
	CodeNoSession = "no_session"
	// CodeRecovering: the session is being rebuilt from its journal after
	// a daemon restart; retry shortly.
	CodeRecovering = "recovering"
	// CodeQuarantined: the session's failure breaker is open — mutating
	// verbs are rejected until an operator runs `unquarantine`.
	CodeQuarantined = "quarantined"
	// CodeOverloaded: the process-wide admission budget is exhausted —
	// too much work in flight across all sessions. The response carries
	// retry_after_ms; retrying after that backoff is always safe because
	// an overload rejection happens before the verb executes.
	CodeOverloaded = "overloaded"
	// CodeSessionLimit: create was rejected because MaxSessions hosted
	// sessions already exist. Distinct from CodeBackpressure (a transient
	// full queue): the limit clears only when a session is closed or
	// evicted, so retrying without acting on that is pointless.
	CodeSessionLimit = "session_limit"
	// CodeDiskFull: the state disk is at the emergency rung of the
	// pressure ladder; mutating verbs are rejected (reads still work)
	// until space is reclaimed.
	CodeDiskFull = "disk_full"
	// CodeMoved: the session was migrated to another backend; MovedTo
	// carries the new address. Rejection happens before execution, so
	// resending the request there is always safe.
	CodeMoved = "moved"
	// CodeUnavailable: the gateway could not reach the backend hosting
	// this session (crash, partition); retry after retry_after_ms — the
	// backend may recover, or the session may be re-routed.
	CodeUnavailable = "unavailable"
	// CodeFenced: the session's replication epoch says this backend is a
	// stale primary — its standby was promoted under a newer fencing
	// token — so mutations are rejected to prevent split-brain. The
	// session's state here is a dead branch; the gateway routes clients
	// to the promoted replica.
	CodeFenced = "fenced"
	// CodeFollower: the session is a replication standby; it accepts
	// mutations only through the primary's replapply stream. Reads work.
	CodeFollower = "follower"
	// CodeReplResync: a replapply batch did not continue from this
	// follower's journal head; the response Data carries the head
	// (replica.Ack) so the shipper resends the tail from there.
	CodeReplResync = "repl_resync"
	// CodeReplReseed: the replapply stream carried a reanchor record —
	// state the follower cannot reconstruct from records alone — so the
	// primary must re-seed it with a fresh transfer blob.
	CodeReplReseed = "repl_reseed"
	// CodeError: any other execution failure.
	CodeError = "error"
)

// ErrBackpressure is returned (and wired to CodeBackpressure) when a
// session's bounded request queue is full.
var ErrBackpressure = errors.New("session queue full (backpressure)")

// ErrDraining is returned for requests arriving during graceful drain.
var ErrDraining = errors.New("server is draining")

// ErrDeadline is returned when a request misses its deadline.
var ErrDeadline = errors.New("request deadline exceeded")

// ErrRecovering is returned for requests that hit a session still being
// replayed from its journal after a restart.
var ErrRecovering = errors.New("session is recovering; retry shortly")

// ErrQuarantined is wrapped by rejections of mutating verbs on a
// quarantined session.
var ErrQuarantined = errors.New("session is quarantined")

// ErrOverloaded and ErrDiskFull are the typed resource-governance
// rejections (re-exported so wire clients don't import internal/govern).
var (
	ErrOverloaded = govern.ErrOverloaded
	ErrDiskFull   = govern.ErrDiskFull
)

// ErrSessionLimit is wrapped by create rejections once MaxSessions
// sessions are hosted.
var ErrSessionLimit = errors.New("session limit reached")

// ErrMoved is wrapped by CodeMoved rejections after a migration.
var ErrMoved = errors.New("session moved to another backend")

// ErrFenced is wrapped by CodeFenced rejections: the session here is a
// stale primary superseded by a promoted replica.
var ErrFenced = errors.New("session fenced (stale primary; replica was promoted)")

// ErrFollower is wrapped by CodeFollower rejections of direct mutations
// against a replication standby.
var ErrFollower = errors.New("session is a replication follower (mutations come from the primary)")

// SessionInfo is one row of the `sessions` verb's Data payload.
type SessionInfo struct {
	Name      string   `json:"name"`
	Pipes     []string `json:"pipes"`
	Dirty     bool     `json:"dirty"`
	Queued    int      `json:"queued"`
	IdleSecs  float64  `json:"idle_secs"`
	Version   string   `json:"version"`
	Subscribers int    `json:"subscribers"`
	// Quarantined is set while the session's failure breaker is open
	// (mutations rejected); Recovering while journal replay is rebuilding
	// it after a restart (all session verbs rejected).
	Quarantined bool `json:"quarantined,omitempty"`
	Recovering  bool `json:"recovering,omitempty"`
	// Evicting is set on a session the idle janitor or the memory
	// governor has unlinked but whose checkpoint and journal watermark
	// are still being written; it carries no other fields and
	// disappears from the listing once the eviction has finished.
	Evicting bool `json:"evicting,omitempty"`
	// Nondurable is set while the session's journal is paused (disk
	// pressure or repeated append failures): it keeps serving from
	// memory, but mutations made now would not survive a crash until the
	// journal resumes and re-anchors.
	Nondurable bool `json:"nondurable,omitempty"`
	// MemBytes is the session's estimated memory footprint (checkpoint
	// history + live pipe state + journal tail).
	MemBytes uint64 `json:"mem_bytes,omitempty"`
	// WALBytes is the session's journal size on disk — what an export
	// would ship. The gateway orders drain migrations cheapest-first by
	// this. Zero when journaling is disabled.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// MarkSeq/MarkCycle describe the last checkpoint watermark: the
	// journal sequence the marks were written at and the highest pipe
	// cycle they cover. The distance from MarkSeq to the journal head is
	// the replay work a migration or crash recovery must do.
	MarkSeq   uint64 `json:"mark_seq,omitempty"`
	MarkCycle uint64 `json:"mark_cycle,omitempty"`
	// Replication state. Epoch is the fencing token the session serves
	// under; Follower marks a standby applying a primary's stream; Fenced
	// marks a stale primary whose replica was promoted. HeadSeq is the
	// journal head; on a primary with a replica, ReplicaAddr names the
	// standby, ReplAckedSeq the highest sequence it durably acked, and
	// ReplLag = HeadSeq - ReplAckedSeq is the unshipped tail.
	Epoch        uint64 `json:"epoch,omitempty"`
	Follower     bool   `json:"follower,omitempty"`
	Fenced       bool   `json:"fenced,omitempty"`
	HeadSeq      uint64 `json:"head_seq,omitempty"`
	ReplicaAddr  string `json:"replica_addr,omitempty"`
	ReplAckedSeq uint64 `json:"repl_acked_seq,omitempty"`
	ReplLag      uint64 `json:"repl_lag,omitempty"`
}

// SpanDump is the `spans <trace-id>` verb's Data payload: one process's
// stored spans for a trace. The gateway fans this out to every backend
// and merges the records into the assembled fleet tree.
type SpanDump struct {
	Proc  string           `json:"proc"`
	Spans []obs.SpanRecord `json:"spans"`
}

// DrainReport is what Shutdown returns: which sessions were checkpointed
// where. It is also written to <drain-dir>/drain.json via the atomic
// checkpoint writer.
type DrainReport struct {
	Sessions []DrainedSession `json:"sessions"`
	// Timeout is set when the drain deadline expired before all in-flight
	// requests finished; the checkpoint pass still ran.
	Timeout bool `json:"timeout,omitempty"`
}

// DrainedSession records what one drained session left behind: the
// checkpoints saved when it was dirty, and its final metrics snapshot
// either way (drain.json is the post-mortem record — a SIGTERM must not
// discard the numbers that explain the run).
type DrainedSession struct {
	Name  string            `json:"name"`
	Files map[string]string `json:"files,omitempty"` // pipe -> checkpoint path
	// Errors records pipes whose checkpoint save failed even after the
	// bounded retries (pipe -> error). A drain with any entry here makes
	// Shutdown return an error so the daemon exits nonzero — the manifest
	// carries the evidence instead of silently dropping it.
	Errors map[string]string `json:"errors,omitempty"`
	// Metrics is the session registry's final snapshot.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// TopRow is one session's row in the `top` verb's Data payload — the
// live operational view: current request rate and latency quantiles
// from the session's rolling window, plus queue and health flags.
type TopRow struct {
	Name        string  `json:"name"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Queued      int     `json:"queued"`
	Requests    uint64  `json:"requests"`
	Version     string  `json:"version"`
	Dirty       bool    `json:"dirty,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
	Recovering  bool    `json:"recovering,omitempty"`
	Nondurable  bool    `json:"nondurable,omitempty"`
}
