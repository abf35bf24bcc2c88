package dsps_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sqpr/internal/dsps"
)

// trialFixture is a valid allocation over its own copy of a fixture's
// system, in which one host the allocation uses is down: Available counts
// what a down host holds, so the holders lookup must too.
type trialFixture struct {
	name string
	sys  *dsps.System
	a    *dsps.Assignment
}

var trialFixtures = sync.OnceValue(func() []trialFixture {
	var out []trialFixture
	for _, fx := range []struct {
		name  string
		state func() (*dsps.System, *dsps.Assignment)
	}{
		{"uniform large state", largeState},
		{"S15-shaped shared state", sharedState},
	} {
		sys, a := fx.state()
		if len(a.Flows) == 0 || len(a.Ops) == 0 {
			panic(fx.name + " holds no flows or no placements to probe around")
		}
		enc, err := json.Marshal(sys)
		if err != nil {
			panic(err)
		}
		own := new(dsps.System)
		if err := json.Unmarshal(enc, own); err != nil {
			panic(err)
		}
		own.SetHostState(a.Flows[0].To, dsps.HostDown)
		out = append(out, trialFixture{fx.name, own, a})
	}
	return out
})

// checkTrial drives a Trial over a copy of fx's allocation with the steps
// data spells, four bytes each: a kind and three bytes of arguments. Kinds
// add a flow, a placement or a provide (any ids, or a copy of a piece the
// allocation holds, which must change nothing), set a mark, or roll back
// to the latest mark. After every add, the holders of the stream it
// touched equal the hosts where Available holds; after every rollback, the
// slices equal those at the mark, the extension listed exactly the pieces
// undone, every usage field equals the one at the mark bit for bit, and
// usage is within rounding of a fresh sum.
func checkTrial(t *testing.T, fx trialFixture, data []byte) {
	sys, a := fx.sys, fx.a.Clone()
	var tr dsps.Trial
	tr.Begin(a)
	tr.Usage.Reset(sys, a)
	type frame struct {
		mark   int
		at     *dsps.Assignment
		ledger dsps.Usage
	}
	marks := []frame{{0, a.Clone(), ledgerOf(&tr.Usage)}}
	n := sys.NumHosts()
	var touched []dsps.StreamID
	var holders []dsps.HostID
	checkHolders := func(s dsps.StreamID) {
		holders = a.HoldersOf(sys, s, holders[:0])
		var want []dsps.HostID
		for m := range n {
			if a.Available(sys, dsps.HostID(m), s) {
				want = append(want, dsps.HostID(m))
			}
		}
		if !slices.Equal(holders, want) {
			t.Fatalf("%s: holders of stream %d are %v, Available holds at %v", fx.name, s, holders, want)
		}
	}
	rollback := func(fr frame) {
		ext := tr.Extension(fr.mark)
		if len(ext.Flows) != len(a.Flows)-len(fr.at.Flows) || len(ext.Ops) != len(a.Ops)-len(fr.at.Ops) ||
			len(ext.Provides) != len(a.Provides)-len(fr.at.Provides) {
			t.Fatalf("%s: the extension lists %d flows, %d placements and %d provides; %d, %d and %d were added",
				fx.name, len(ext.Flows), len(ext.Ops), len(ext.Provides),
				len(a.Flows)-len(fr.at.Flows), len(a.Ops)-len(fr.at.Ops), len(a.Provides)-len(fr.at.Provides))
		}
		for _, f := range ext.Flows {
			if fr.at.HasFlow(f) || !a.HasFlow(f) {
				t.Fatalf("%s: the extension lists flow %+v, which was not added", fx.name, f)
			}
		}
		for _, pl := range ext.Ops {
			if fr.at.HasOp(pl) || !a.HasOp(pl) {
				t.Fatalf("%s: the extension lists placement %+v, which was not added", fx.name, pl)
			}
		}
		tr.Rollback(fr.mark)
		if !slices.Equal(a.Flows, fr.at.Flows) || !slices.Equal(a.Ops, fr.at.Ops) || !slices.Equal(a.Provides, fr.at.Provides) {
			t.Fatalf("%s: rollback to mark %d left %d flows, %d placements and %d provides; the mark had %d, %d and %d",
				fx.name, fr.mark, len(a.Flows), len(a.Ops), len(a.Provides), len(fr.at.Flows), len(fr.at.Ops), len(fr.at.Provides))
		}
		if field, ok := sameLedger(&tr.Usage, &fr.ledger); !ok {
			t.Fatalf("%s: rollback to mark %d left other bits in Usage.%s than the mark had", fx.name, fr.mark, field)
		}
		fresh := a.ComputeUsage(sys)
		for h := range n {
			if d := max(math.Abs(fresh.CPU[h]-tr.Usage.CPU[h]), math.Abs(fresh.Out[h]-tr.Usage.Out[h]), math.Abs(fresh.In[h]-tr.Usage.In[h])); d > 1e-9 {
				t.Fatalf("%s: host %d's usage after rollback is %v off a fresh sum", fx.name, h, d)
			}
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		x := int(data[1])<<8 | int(data[2])
		h := dsps.HostID(int(data[3]) % n)
		var s dsps.StreamID
		switch data[0] % 8 {
		case 0: // a flow of any stream between two hosts
			f := dsps.Flow{From: h, To: dsps.HostID((int(h) + 1 + x%(n-1)) % n), Stream: dsps.StreamID(x % len(sys.Streams))}
			tr.AddFlow(f)
			s = f.Stream
		case 1: // a placement of any operator
			pl := dsps.Placement{Host: h, Op: dsps.OperatorID(x % len(sys.Operators))}
			tr.AddOp(pl)
			s = sys.Operators[pl.Op].Output
		case 2: // a provide of any stream
			p := dsps.Provide{Stream: dsps.StreamID(x % len(sys.Streams)), Host: h}
			tr.AddProvide(p)
			s = p.Stream
		case 3: // a flow the allocation holds
			f := a.Flows[x%len(a.Flows)]
			tr.AddFlow(f)
			s = f.Stream
		case 4: // a placement the allocation holds, moved to host h
			pl := a.Ops[x%len(a.Ops)]
			pl.Host = h
			tr.AddOp(pl)
			s = sys.Operators[pl.Op].Output
		case 5: // a flow of a stream the allocation moves, into host h
			f := a.Flows[x%len(a.Flows)]
			if f.From != h {
				f.To = h
			}
			tr.AddFlow(f)
			s = f.Stream
		case 6:
			marks = append(marks, frame{tr.Mark(), a.Clone(), ledgerOf(&tr.Usage)})
			continue
		case 7:
			rollback(marks[len(marks)-1])
			if len(marks) > 1 {
				marks = marks[:len(marks)-1]
			}
			continue
		}
		checkHolders(s)
		touched = append(touched, s)
	}
	rollback(marks[0])
	for _, s := range touched {
		checkHolders(s)
	}
}

// ledgerOf copies every field of u that a Trial writes.
func ledgerOf(u *dsps.Usage) dsps.Usage {
	c := dsps.Usage{CPU: slices.Clone(u.CPU), Mem: slices.Clone(u.Mem), Out: slices.Clone(u.Out), In: slices.Clone(u.In),
		Network: u.Network, CPUSum: u.CPUSum}
	for _, row := range u.Link {
		c.Link = append(c.Link, slices.Clone(row))
	}
	return c
}

// sameLedger reports whether got and want hold the same bits in every
// field, and otherwise names the first field that differs.
func sameLedger(got, want *dsps.Usage) (string, bool) {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case !bits(got.CPU, want.CPU):
		return "CPU", false
	case !bits(got.Mem, want.Mem):
		return "Mem", false
	case !bits(got.Out, want.Out):
		return "Out", false
	case !bits(got.In, want.In):
		return "In", false
	case !slices.EqualFunc(got.Link, want.Link, bits):
		return "Link", false
	case !bits([]float64{got.Network, got.CPUSum}, []float64{want.Network, want.CPUSum}):
		return "Network/CPUSum", false
	}
	return "", true
}

// trialSeeds are the fuzz corpus and the property test's first inputs.
var trialSeeds = [][]byte{
	{},
	{6, 0, 0, 0, 0, 1, 2, 3, 7, 0, 0, 0},
	{3, 0, 5, 1, 4, 0, 9, 2, 6, 0, 0, 0, 0, 2, 17, 4, 1, 7, 7, 9, 5, 0, 3, 6, 7, 0, 0, 0, 2, 1, 1, 1},
}

// TestTrialRollbackRestoresTheMark runs checkTrial on the corpus and on
// seeded random steps, on both fixtures.
func TestTrialRollbackRestoresTheMark(t *testing.T) {
	inputs := slices.Clone(trialSeeds)
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		data := make([]byte, 4*200)
		rng.Read(data)
		inputs = append(inputs, data)
	}
	for _, fx := range trialFixtures() {
		for _, data := range inputs {
			checkTrial(t, fx, data)
		}
	}
}

// FuzzTrial is TestTrialRollbackRestoresTheMark's check on the steps the
// fuzz bytes pick.
func FuzzTrial(f *testing.F) {
	for _, data := range trialSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range trialFixtures() {
			checkTrial(t, fx, data)
		}
	})
}
