package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// TestBaselineAdmissionsPinned holds the baselines' decisions to recorded
// values: the heuristic's admission column and final allocation on a
// 50-host run shaped like `sqpr-sim -fig 4a -hosts 50 -queries 150`, and
// SODA's column on the Fig. 7 deployment. Both probe candidates on one
// trial allocation and roll it back; a change to that machinery that moves
// any decision, or a float sum that a decision reads, shows here.
func TestBaselineAdmissionsPinned(t *testing.T) {
	sc := DefaultScale()
	sc.Hosts, sc.Queries = 50, 150
	env := BuildEnv(sc)
	h := env.NewHeuristic()
	c := RunAdmission("heuristic", h, env.Queries, sc.Queries/10)
	if want := []int{15, 30, 45, 60, 74, 88, 101, 113, 126, 140}; c.Errors != 0 || !slices.Equal(c.Satisfied, want) {
		t.Errorf("heuristic admitted %v (%d errors), want %v", c.Satisfied, c.Errors, want)
	}
	enc, err := json.Marshal(h.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	sum := fnv.New64a()
	sum.Write(enc)
	if got, want := fmt.Sprintf("%016x", sum.Sum64()), "c70cada4a09e9bb0"; got != want {
		t.Errorf("heuristic's final allocation hashes to %s, want %s", got, want)
	}

	res := Fig7(context.Background(), DefaultDeployScale())
	if want := []int{40, 61, 84, 105, 126}; res.SODAErrors != 0 || !slices.Equal(res.SODA, want) {
		t.Errorf("SODA admitted %v (%d errors), want %v", res.SODA, res.SODAErrors, want)
	}
}
