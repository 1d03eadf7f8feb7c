package main

import (
	"reflect"
	"testing"

	"livesim/internal/pgas"
)

// inputs collects everything a seed decides: the run-2x2 iteration
// counts, the edit sequence and the serve request mix.
func inputs(seed int64) (iters [][]int, edits []editStep, decks [][]servedReq) {
	for ep := 0; ep < 4; ep++ {
		iters = append(iters, nodeIters(seed, ep, 4))
	}
	plan := newEditPlan(seed)
	for i := 0; i < 40; i++ {
		edits = append(edits, plan.next(erdCfg.runMin, erdCfg.runMax))
	}
	for d := 0; d < 2; d++ {
		decks = append(decks, requestDeck(seed, d))
	}
	return iters, edits, decks
}

func TestSameSeedSameInputs(t *testing.T) {
	i1, e1, d1 := inputs(7)
	i2, e2, d2 := inputs(7)
	if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("seed 7 drew different inputs twice")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	i1, e1, d1 := inputs(7)
	i2, e2, d2 := inputs(8)
	if reflect.DeepEqual(i1, i2) {
		t.Error("seeds 7 and 8 drew the same iteration counts")
	}
	if reflect.DeepEqual(e1, e2) {
		t.Error("seeds 7 and 8 drew the same edit sequence")
	}
	if reflect.DeepEqual(d1, d2) {
		t.Error("seeds 7 and 8 drew the same request mix")
	}
}

// Edit steps come in apply/revert pairs, so the session only ever runs
// the pristine source or one catalog edit.
func TestEditPlanPairs(t *testing.T) {
	_, edits, _ := inputs(3)
	var set editSet
	for i, st := range edits {
		set = set.toggle(st.Change)
		if i%2 == 1 && set != 0 {
			t.Fatalf("step %d leaves edit set %b", i, set)
		}
	}
}

// Every request kind appears in each deck in its fixed share.
func TestDeckShares(t *testing.T) {
	var n [len(deckShares)]int
	for _, q := range requestDeck(5, 0) {
		n[q.Kind]++
	}
	if n != deckShares {
		t.Errorf("deck shares %v, want %v", n, deckShares)
	}
}

// Each run of len(pgas.Changes) applied edits deals every catalog entry
// exactly once.
func TestEditPlanDecks(t *testing.T) {
	_, edits, _ := inputs(11)
	n := len(pgas.Changes)
	for d := 0; 2*n*(d+1) <= len(edits); d++ {
		seen := map[int]bool{}
		for i := 2 * n * d; i < 2*n*(d+1); i += 2 {
			seen[edits[i].Change] = true
		}
		if len(seen) != n {
			t.Errorf("deck %d deals %d distinct entries, want %d", d, len(seen), n)
		}
	}
}
