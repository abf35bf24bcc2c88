// Package fixture is the hotalloc corpus: annotated hot functions with
// allocation sites, suppressions and clean steady-state code.
package fixture

import (
	"fmt"

	"sqpr/internal/invariant"
)

type pool struct {
	scratch []float64
	journal []int
	seen    map[int]bool
	total   float64
}

// allocEverywhere trips every rule.
//
//sqpr:hotpath
func (p *pool) allocEverywhere(n int, name string) string {
	xs := make([]float64, n)         // want "calls make"
	p.journal = append(p.journal, n) // want "appends"
	m := map[int]bool{1: true}       // want "map literal"
	s := []int{1, 2, 3}              // want "slice literal"
	q := &pool{}                     // want "address of a composite literal"
	f := func() {}                   // want "closure literal"
	go f()                           // want "starts a goroutine"
	b := []byte(name)                // want "converts between string and slice"
	msg := "hot " + name             // want "concatenates strings"
	fmt.Println(xs, m, s, q, b)      // want `calls fmt\.Println`
	y := new(pool)                   // want "calls new"
	_ = y
	return msg
}

// steadyState is the clean case: index arithmetic into pooled storage, an
// amortized append, and an invariant block that may allocate because
// release builds delete it.
//
//sqpr:hotpath
func (p *pool) steadyState(i int, v float64) float64 {
	p.scratch[i%64] = v
	//sqpr:amortized journal keeps its capacity across calls
	p.journal = append(p.journal, i)
	p.total += v
	if invariant.Enabled && p.total < 0 {
		invariant.Failf("total went negative: %v (journal %v)", p.total, p.journal)
	}
	return p.scratch[i%64]
}

// unannotated may allocate freely.
func unannotated(n int) []int { return make([]int, n) }
