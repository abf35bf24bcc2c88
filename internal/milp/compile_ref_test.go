package milp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sqpr/internal/lp"
)

// refRow is a row as the caller added it, repeated variables and zero
// coefficients included.
type refRow struct {
	name  string
	sense Sense
	rhs   float64
	terms []Term
}

// refModel is a model together with the rows its caller added.
type refModel struct {
	m    *Model
	rows []refRow
}

// addCons adds a row to the model and records it.
func (r *refModel) addCons(name string, sense Sense, rhs float64, terms ...Term) {
	r.m.AddCons(name, sense, rhs, terms...)
	r.rows = append(r.rows, refRow{name: name, sense: sense, rhs: rhs, terms: slices.Clone(terms)})
}

// refLP is the LP image of the reference compile: one lp.Constraint per
// live row, as compile emitted it before the rows became one CSR.
type refLP struct {
	active                    []int
	cost, upper               []float64
	cons                      []lp.Constraint
	fixed, tightened, dropped int
	objOff, shiftOff, objDir  float64
	emptied                   int // live rows left without an active term

	lpIndex        []int
	shift, fixedAt []float64
}

// referenceCompile is compile as it stood before the model kept its rows
// as one CSR: it flattens the caller's rows into a term-accumulated image
// (a repeated variable merged at its first appearance, zero sums dropped),
// runs presolve over that image when presolveOn, and emits one
// lp.Constraint per live row with fixed variables folded into the
// right-hand side and the rest shifted to zero lower bounds. Presolve is
// the package's own; it runs on a scratch model whose rows are the
// reference's flattening, so the comparison also pins AddCons's merge.
func referenceCompile(m *Model, rows []refRow, presolveOn bool) (*refLP, error) {
	nv := len(m.vars)
	im := &Model{vars: slices.Clone(m.vars), maximize: m.maximize, rowStart: []int32{0}}

	// Flatten with a round-stamped accumulator per model variable.
	coefAcc := make([]float64, nv)
	mark := make([]int, nv)
	var touched []int
	for ri, r := range rows {
		round := ri + 1
		touched = touched[:0]
		for _, t := range r.terms {
			mi := int(t.Var)
			if mark[mi] != round {
				mark[mi] = round
				coefAcc[mi] = 0
				touched = append(touched, mi)
			}
			coefAcc[mi] += t.Coef
		}
		for _, mi := range touched {
			if cf := coefAcc[mi]; cf != 0 {
				im.rowVar = append(im.rowVar, int32(mi))
				im.rowCoef = append(im.rowCoef, cf)
			}
		}
		im.rowStart = append(im.rowStart, int32(len(im.rowVar)))
		im.rowSense = append(im.rowSense, r.sense)
		im.rowRHS = append(im.rowRHS, r.rhs)
		im.rowName = append(im.rowName, r.name)
	}

	c := &im.compiled
	c.m = im
	out := &refLP{objDir: 1}
	if im.maximize {
		out.objDir = -1
	}
	c.plo = make([]float64, nv)
	c.phi = make([]float64, nv)
	c.free = make([]bool, nv)
	for i, v := range im.vars {
		c.free[i] = v.typ == Binary && v.lo == 0 && v.hi == 1
		if math.IsInf(v.hi, 1) {
			return nil, fmt.Errorf("milp: variable %q has no finite upper bound", v.name)
		}
		if v.hi < v.lo-1e-9 {
			return nil, errInfeasible
		}
		c.plo[i], c.phi[i] = v.lo, v.hi
	}
	c.pcoef = slices.Clone(im.rowCoef)
	c.prhs = slices.Clone(im.rowRHS)
	c.pskip = make([]bool, len(rows))
	if presolveOn {
		if err := c.runPresolve(nil); err != nil {
			return nil, err
		}
	}
	out.fixed, out.tightened, out.dropped = c.presolveFixed, c.presolveTightened, c.presolveDropped

	// Active set from the overlay bounds.
	out.lpIndex = make([]int, nv)
	out.shift = make([]float64, nv)
	out.fixedAt = make([]float64, nv)
	for i, v := range im.vars {
		lo, hi := c.plo[i], c.phi[i]
		if hi < lo-1e-9 {
			return nil, errInfeasible
		}
		if hi-lo <= 1e-12 {
			out.lpIndex[i] = -1
			out.fixedAt[i] = lo
			out.objOff += v.obj * lo
			continue
		}
		out.lpIndex[i] = len(out.active)
		out.shift[i] = lo
		out.shiftOff += v.obj * lo
		out.active = append(out.active, i)
	}
	for _, mi := range out.active {
		out.cost = append(out.cost, out.objDir*im.vars[mi].obj)
		out.upper = append(out.upper, c.phi[mi]-c.plo[mi])
	}

	// One constraint per live row.
	for ri := range rows {
		if c.pskip[ri] {
			continue
		}
		rhs := c.prhs[ri]
		var terms []lp.Term
		for k := im.rowStart[ri]; k < im.rowStart[ri+1]; k++ {
			mi, cf := int(im.rowVar[k]), c.pcoef[k]
			if out.lpIndex[mi] < 0 {
				rhs -= cf * out.fixedAt[mi]
				continue
			}
			rhs -= cf * out.shift[mi]
			terms = append(terms, lp.Term{Var: out.lpIndex[mi], Coef: cf})
		}
		if len(terms) == 0 {
			ok := true
			switch im.rowSense[ri] {
			case LE:
				ok = 0 <= rhs+lp.FeasTol
			case GE:
				ok = 0 >= rhs-lp.FeasTol
			case EQ:
				ok = math.Abs(rhs) <= lp.FeasTol
			}
			if !ok {
				return nil, errInfeasible
			}
			out.emptied++
			continue
		}
		out.cons = append(out.cons, lp.Constraint{Terms: terms, Sense: im.rowSense[ri], RHS: rhs})
	}
	return out, nil
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// matchReference compiles r's model both ways and returns what differs
// between the reference image and compile's CSR, or "" when they agree bit
// for bit: the outcome, the active columns, their costs and bounds, the
// presolve counts, and every live row's sense, right-hand side and terms
// in order.
func matchReference(r *refModel, presolveOn bool) string {
	want, werr := referenceCompile(r.m, r.rows, presolveOn)
	c, err := r.m.compile(presolveOn, nil)
	if werr != nil || err != nil {
		if (werr == nil) != (err == nil) || (werr == errInfeasible) != (err == errInfeasible) {
			return fmt.Sprintf("compile returned %v, the reference %v", err, werr)
		}
		return ""
	}
	got := [3]int{c.presolveFixed, c.presolveTightened, c.presolveDropped}
	if exp := [3]int{want.fixed, want.tightened, want.dropped}; got != exp {
		return fmt.Sprintf("presolve (fixed, tightened, dropped) %v, reference %v", got, exp)
	}
	if !slices.Equal(c.active, want.active) {
		return fmt.Sprintf("active columns %v, reference %v", c.active, want.active)
	}
	a := &c.lp
	if a.NumVars != len(want.active) || !sameBits(a.Cost, want.cost) || !sameBits(a.Upper, want.upper) {
		return fmt.Sprintf("columns: cost %v upper %v, reference cost %v upper %v", a.Cost, a.Upper, want.cost, want.upper)
	}
	if c.objOff != want.objOff || c.shiftOff != want.shiftOff || c.objDir != want.objDir {
		return fmt.Sprintf("objective offsets (%v, %v, %v), reference (%v, %v, %v)",
			c.objOff, c.shiftOff, c.objDir, want.objOff, want.shiftOff, want.objDir)
	}
	if len(a.Sense) != len(want.cons) {
		return fmt.Sprintf("%d live rows, reference %d", len(a.Sense), len(want.cons))
	}
	for i, w := range want.cons {
		lo, hi := a.Start[i], a.Start[i+1]
		vars := make([]int, 0, hi-lo)
		for _, j := range a.Var[lo:hi] {
			vars = append(vars, int(j))
		}
		wvars := make([]int, len(w.Terms))
		wcoefs := make([]float64, len(w.Terms))
		for k, t := range w.Terms {
			wvars[k], wcoefs[k] = t.Var, t.Coef
		}
		if a.Sense[i] != w.Sense || math.Float64bits(a.RHS[i]) != math.Float64bits(w.RHS) ||
			!slices.Equal(vars, wvars) || !sameBits(a.Coef[lo:hi], wcoefs) {
			return fmt.Sprintf("row %d: %v %v over %v·%v, reference %v %v over %v·%v",
				i, a.Sense[i], a.RHS[i], a.Coef[lo:hi], vars, w.Sense, w.RHS, wcoefs, wvars)
		}
	}
	return ""
}

// csrRandomModel builds a random model aimed at the corners of the row
// matrix: rows that name a variable twice (some summing to zero), zero
// coefficients, binaries fixed by Fix, continuous variables with shifted
// or collapsed bounds, and rows whose every variable is fixed, which
// compile must check and drop. Right-hand sides sit near the activity of a
// random point within the bounds, so most rows are satisfiable and
// presolve has something to do; a few miss it, to reach infeasibility.
func csrRandomModel(rng *rand.Rand) *refModel {
	r := &refModel{m: NewModel()}
	m := r.m
	n := 4 + rng.Intn(20)
	vars := make([]Var, n)
	point := make([]float64, n)
	obj := make([]Term, 0, n)
	for i := range vars {
		if rng.Intn(3) > 0 {
			vars[i] = m.AddBinary("b")
			point[i] = float64(rng.Intn(2))
			switch rng.Intn(6) {
			case 0:
				m.Fix(vars[i], 0)
				point[i] = 0
			case 1:
				m.Fix(vars[i], 1)
				point[i] = 1
			}
		} else {
			lo := float64(rng.Intn(3)) * rng.Float64()
			hi := lo + float64(rng.Intn(4))*(0.5+rng.Float64())
			vars[i] = m.AddContinuous(lo, hi, "y")
			point[i] = lo + (hi-lo)*rng.Float64()
		}
		obj = append(obj, Term{vars[i], math.Round(rng.NormFloat64()*8) / 2})
	}
	m.SetObjective(rng.Intn(2) == 0, obj...)
	coef := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(7) - 3)
		}
		return rng.NormFloat64() * 4
	}
	rows := 3 + rng.Intn(25)
	for ri := 0; ri < rows; ri++ {
		var terms []Term
		k := rng.Intn(7)
		pool := 1 + rng.Intn(n)
		for range k {
			terms = append(terms, Term{vars[rng.Intn(pool)], coef()})
		}
		if len(terms) > 0 && rng.Intn(4) == 0 {
			// A repeat that cancels the first appearance.
			terms = append(terms, Term{terms[0].Var, -terms[0].Coef})
		}
		var act float64
		for _, t := range terms {
			act += t.Coef * point[t.Var]
		}
		sense := Sense(rng.Intn(3))
		rhs := act
		switch {
		case rng.Intn(12) == 0:
			rhs += float64(rng.Intn(5) - 2) // may miss the point
		case sense == LE:
			rhs += rng.Float64() * 2
		case sense == GE:
			rhs -= rng.Float64() * 2
		}
		r.addCons(fmt.Sprintf("r%d", ri), sense, rhs, terms...)
	}
	return r
}

// TestCompileMatchesReference holds compile's CSR emission to the
// reference flatten-and-emit (referenceCompile) bit for bit, with presolve
// on and off, on 300 random models aimed at the row matrix's corners and on
// the recorded S15 rejection model.
func TestCompileMatchesReference(t *testing.T) {
	outcomes := map[string]int{}
	emptied := 0
	for seed := int64(0); seed < 300; seed++ {
		r := csrRandomModel(rand.New(rand.NewSource(seed)))
		for _, on := range []bool{true, false} {
			if diff := matchReference(r, on); diff != "" {
				t.Fatalf("seed %d, presolve %v: %s", seed, on, diff)
			}
			ref, err := referenceCompile(r.m, r.rows, on)
			outcomes[fmt.Sprintf("presolve %v, infeasible %v", on, err != nil)]++
			if err == nil {
				emptied += ref.emptied
			}
		}
	}
	t.Logf("random models: %v; %d satisfied rows emptied by fixing", outcomes, emptied)
	if emptied < 20 {
		t.Errorf("only %d satisfied rows were emptied by fixing", emptied)
	}
	// Both outcomes must be common, with presolve on and off, or the
	// comparison would not reach the paths it is for.
	for _, on := range []bool{true, false} {
		for _, inf := range []bool{true, false} {
			if k := fmt.Sprintf("presolve %v, infeasible %v", on, inf); outcomes[k] < 20 {
				t.Errorf("only %d random models reached %q", outcomes[k], k)
			}
		}
	}
	r := loadS15Model(t)
	for _, on := range []bool{true, false} {
		if diff := matchReference(r, on); diff != "" {
			t.Fatalf("S15 model, presolve %v: %s", on, diff)
		}
	}
}
