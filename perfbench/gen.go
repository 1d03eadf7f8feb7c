package main

import (
	"fmt"
	"math/rand"

	"livesim/internal/liveparser"
	"livesim/internal/pgas"
)

// Every input of a run is drawn here from the seed, so the same seed gives
// the same inputs and the program under test receives only their result.

// Salts keep the streams of one seed independent of each other.
const (
	saltIters = 0x1f3a
	saltEdits = 0x2b51
	saltDeck  = 0x3c77
)

func rng(seed int64, salt, sub int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*7919 + int64(sub)))
}

// Per-node iteration counts of the run-2x2 kernels. The range is narrow so
// that most 500-cycle slices run every node: slices with halted nodes are
// cheaper, and a wide range would put the median slice on that boundary.
const itersMin, itersMax = 30, 36

// nodeIters draws the compute-kernel iteration count of every node of one
// run-2x2 episode; nodes therefore halt at different cycles.
func nodeIters(seed int64, episode, nodes int) []int {
	r := rng(seed, saltIters, episode)
	out := make([]int, nodes)
	for i := range out {
		out[i] = itersMin + r.Intn(itersMax-itersMin+1)
	}
	return out
}

// editStep is one step of the edit loop: toggle catalog entry Change, then
// run RunCycles more cycles.
type editStep struct {
	Change    int
	RunCycles int
}

// editPlan draws the edit loop's steps lazily, so a run takes as many as
// its time allows. Steps come in pairs: a seeded catalog entry is applied,
// and the next step reverts it. The session therefore alternates between
// the pristine source and one edit, as in the paper's Fig 8 loop, which
// bounds the distinct sources, and with them the flatsim references, to
// len(pgas.Changes)+1. The entries are dealt from shuffled decks that hold
// each catalog entry once, so every entry comes at the rate a uniform draw
// gives it, but a run's mix of cheap and costly edits does not swing with
// the seed.
type editPlan struct {
	r       *rand.Rand
	deck    []int
	applied int // entry the next step reverts; -1 when none
}

func newEditPlan(seed int64) *editPlan { return &editPlan{r: rng(seed, saltEdits, 0), applied: -1} }

func (p *editPlan) next(runMin, runMax int) editStep {
	st := editStep{Change: p.applied, RunCycles: runMin + p.r.Intn(runMax-runMin+1)}
	if p.applied >= 0 {
		p.applied = -1
		return st
	}
	if len(p.deck) == 0 {
		p.deck = p.r.Perm(len(pgas.Changes))
	}
	st.Change, p.deck = p.deck[0], p.deck[1:]
	p.applied = st.Change
	return st
}

// Request kinds of the serve-1x1 mix.
const (
	reqPeek = iota
	reqStats
	reqRun
	reqApply
)

var reqKindName = [...]string{"peek", "stats", "run", "apply"}

// The serve-1x1 deck: fixed shares per kind, shuffled per seed.
// The shares are an assumption, not an observed workload: the repository
// holds no recorded client session and cites no interactive request mix.
// They were chosen for layer coverage. Reads dominate so that decode,
// queue, worker and the gateway hop are most of the cost; applies are rare
// because each one re-executes and verifies. Peeks are well over half the
// deck so that the round-trip median lies inside the peek latencies: with
// exactly half, it sat on the edge between peeks and the slower kinds and
// jumped between them from run to run. Every serve-1x1 end-to-end figure
// depends on the shares; replace them when a recorded trace exists.
var deckShares = [...]int{reqPeek: 700, reqStats: 100, reqRun: 198, reqApply: 2}

// servedReq is one request of a client's deck.
type servedReq struct {
	Kind   int
	Cycles int // reqRun
}

// requestDeck returns shuffled deck d; the client goes through fresh decks
// until its request budget is spent.
func requestDeck(seed int64, d int) []servedReq {
	r := rng(seed, saltDeck, d)
	var deck []servedReq
	for kind, n := range deckShares {
		for i := 0; i < n; i++ {
			q := servedReq{Kind: kind}
			if kind == reqRun {
				q.Cycles = 8 + r.Intn(25)
			}
			deck = append(deck, q)
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// editSet is the set of catalog changes currently applied, one bit per
// pgas.Changes entry. It names a source version and keys its reference.
type editSet uint32

func (e editSet) toggle(i int) editSet { return e ^ 1<<uint(i) }

// source builds the design source with the set's changes applied to the
// pristine n-node design, in catalog order.
func (e editSet) source(n int) (liveparser.Source, error) {
	src := pgas.Source(n)
	for i, ch := range pgas.Changes {
		if e&(1<<uint(i)) == 0 {
			continue
		}
		var err error
		if src, err = ch.Apply(src); err != nil {
			return src, fmt.Errorf("edit set %b: %w", e, err)
		}
	}
	return src, nil
}
