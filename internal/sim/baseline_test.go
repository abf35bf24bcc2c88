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
// values: the heuristic's and SODA's admission columns and final
// allocations on a 50-host run shaped like `sqpr-sim -fig 4a -hosts 50
// -queries 150`, and SODA's column on the Fig. 7 deployment. Both probe
// candidates on one trial allocation and roll it back; a change to that
// machinery that moves any decision, or a float sum that a decision reads,
// shows here.
func TestBaselineAdmissionsPinned(t *testing.T) {
	sc := DefaultScale()
	sc.Hosts, sc.Queries = 50, 150
	env := BuildEnv(sc)
	for _, pin := range []struct {
		name string
		p    Submitter
		want []int
		hash string
	}{
		{"heuristic", env.NewHeuristic(), []int{15, 30, 45, 60, 74, 88, 101, 113, 126, 140}, "c70cada4a09e9bb0"},
		{"SODA", env.NewSODA(), []int{13, 20, 21, 21, 21, 22, 22, 23, 23, 23}, "978ba30825bb5e7e"},
	} {
		c := RunAdmission(pin.name, pin.p, env.Queries, sc.Queries/10)
		if c.Errors != 0 || !slices.Equal(c.Satisfied, pin.want) {
			t.Errorf("%s admitted %v (%d errors), want %v", pin.name, c.Satisfied, c.Errors, pin.want)
		}
		enc, err := json.Marshal(pin.p.Assignment())
		if err != nil {
			t.Fatal(err)
		}
		sum := fnv.New64a()
		sum.Write(enc)
		if got := fmt.Sprintf("%016x", sum.Sum64()); got != pin.hash {
			t.Errorf("%s's final allocation hashes to %s, want %s", pin.name, got, pin.hash)
		}
	}

	res := Fig7(context.Background(), DefaultDeployScale())
	if want := []int{40, 61, 84, 105, 126}; res.SODAErrors != 0 || !slices.Equal(res.SODA, want) {
		t.Errorf("SODA admitted %v (%d errors), want %v", res.SODA, res.SODAErrors, want)
	}
}
