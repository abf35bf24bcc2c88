package main

import (
	"math/rand"
	"sort"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// substrate is a host cluster plus the shape of its query population.
type substrate struct {
	hosts       int
	cpu         float64
	bw          float64 // in and out bandwidth per host
	link        float64
	baseStreams int
	zipf        float64
}

var (
	// s15 is the cluster `sqpr-cluster -serve` plans over (the paper's
	// Fig. 7 deployment): small, Zipf-1 popular streams, heavy sharing.
	s15 = substrate{hosts: 15, cpu: 10, bw: 60, link: 25, baseStreams: 150, zipf: 1}
	// s32 is wide and uniform: queries share almost nothing, so solves stay
	// tiny and the cost that grows is the one proportional to admitted state.
	s32 = substrate{hosts: 32, cpu: 40, bw: 300, link: 80, baseStreams: 1200, zipf: 0}
)

// spec is one benchmark workload: a substrate, how much of the query
// population is admitted before the clock starts, and the round script.
type spec struct {
	name string
	why  string
	sub  substrate
	// queries is the length of the generated query sequence; its distinct
	// members are the population the script draws from.
	queries int
	// prefill is how many of the first distinct queries are submitted to a
	// bare planner to build the state every round starts from.
	prefill int
	// fill selects the fill script: submit the whole sequence in order.
	// Otherwise the round is steps churn steps.
	fill  bool
	steps int
	// failEvery runs one host-failure cycle after every failEvery-th churn
	// step; 0 means hosts never fail.
	failEvery int
	// warm is the length of the warm-up script each set-up plays, in fill
	// submits or churn steps: enough to fault in the runtime, the
	// connection and the solver's pools, few enough to repeat.
	warm int
}

// warmUp is the workload cut down to its warm-up script. No host fails in
// it: a failure costs as many solves as it drops queries, which would make
// the set-up time the most variable number of the run.
func (sp *spec) warmUp() *spec {
	w := *sp
	w.steps, w.failEvery = sp.warm, 0
	return &w
}

// wholePool as a step count makes a churn round submit every query that was
// not admitted at its start.
const wholePool = 1 << 30

// readEvery is the step period of GET /v1/assignment in every script.
const readEvery = 10

var specs = []spec{
	{
		name: "fill_to_saturation",
		why:  "15-host cluster filled from empty to saturation: solver-bound, core+milp+lp are nearly all of every op and the tail hits the solve budget",
		sub:  s15, queries: 200, fill: true, warm: 60,
	},
	{
		name: "steady_churn",
		why:  "15-host cluster held at 30% of its population by submit/remove churn: small solves beside sub-ms removes where serve, queue, journal and fsync show",
		sub:  s15, queries: 300, prefill: 56, steps: wholePool, warm: 20,
	},
	{
		name: "large_state",
		why:  "32-host cluster, uniform streams, hundreds admitted: tiny solves, so validate, GC, state export+diff and snapshots (all O(admitted state)) dominate",
		sub:  s32, queries: 800, prefill: 300, steps: 300, warm: 20,
	},
	{
		name: "host_churn",
		why:  "steady_churn state with a host failing and recovering every 2nd step: Repair strip/cascade, multi-query deltas and bursts of resubmission that reuse surviving operators",
		sub:  s15, queries: 300, prefill: 56, steps: 30, failEvery: 2, warm: 20,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// populationSeed fixes the generated system and query population (7 is the
// daemon's own, sim.DefaultDeployScale). The run's -seed does not reach the
// generator: on the 15-host cluster one population admits 73% of a churn
// script's submits at 83 ops/s and the next 92% at 187, and a benchmark whose
// runs are compared across seeds would measure that, not the code. The seed
// drives what is done with the population: arrival order and every random
// choice of the script.
const populationSeed = 7

// generate builds the system and the query sequence of the workload. It is
// the same on every call, and cheap enough that every round calls it again
// for a system no earlier round has touched.
func (sp *spec) generate() (*dsps.System, []dsps.StreamID) {
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: sp.sub.hosts, CPUPerHost: sp.sub.cpu,
		OutBW: sp.sub.bw, InBW: sp.sub.bw, LinkCap: sp.sub.link,
	})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: sp.sub.baseStreams, BaseRate: 10, Zipf: sp.sub.zipf,
		Arities: []int{2, 3}, NumQueries: sp.queries,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: populationSeed,
	})
	return sys, w.Queries
}

// distinct returns the first occurrence of every query, in sequence order.
func distinct(seq []dsps.StreamID) []dsps.StreamID {
	seen := make(map[dsps.StreamID]bool, len(seq))
	var out []dsps.StreamID
	for _, q := range seq {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// target is what a script drives: the HTTP client in a run, a recorder in
// the determinism test. Methods return what the script's next choice may
// depend on, and nothing else.
type target interface {
	// submit reports whether q is admitted after the call.
	submit(q dsps.StreamID) bool
	remove(q dsps.StreamID)
	read()
	// fail takes host h down and returns the queries that lost admission.
	fail(h dsps.HostID) []dsps.StreamID
	recover(h dsps.HostID)
	// cycleDone marks the end of a host-failure cycle begun by fail.
	cycleDone()
}

// script is the state a round's request sequence is a function of: the
// seeded generator and the client's model of the admitted set.
type script struct {
	rng        *rand.Rand
	admitted   []dsps.StreamID
	unadmitted []dsps.StreamID
	level      int // size of the admitted set the churn holds
}

// newScript starts a round's script: pop is the distinct population, of
// which initial is admitted. Every round of a run draws from its own
// generator, derived from the run's seed and the round's number, so a run
// pools several orders of the same work and the same seed still gives the
// same rounds.
func newScript(seed int64, round int, pop, initial []dsps.StreamID) *script {
	in := make(map[dsps.StreamID]bool, len(initial))
	for _, q := range initial {
		in[q] = true
	}
	s := &script{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(round))), level: len(initial)}
	for _, q := range pop {
		if in[q] {
			s.admitted = append(s.admitted, q)
		} else {
			s.unadmitted = append(s.unadmitted, q)
		}
	}
	return s
}

func (s *script) model() []dsps.StreamID {
	m := append([]dsps.StreamID(nil), s.admitted...)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return m
}

func drop(list []dsps.StreamID, q dsps.StreamID) []dsps.StreamID {
	for i, x := range list {
		if x == q {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func (s *script) shuffled(list []dsps.StreamID) []dsps.StreamID {
	out := append([]dsps.StreamID(nil), list...)
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// run plays one round of sp against t; seq is the generated query sequence.
//
// The seed changes the order of a round's work and not which work it is: a
// fill submits the whole sequence, a churn round submits sp.steps queries
// drawn without replacement from those not admitted at its start, and hosts
// fail in an order that visits each once before any twice. On the 15-host
// cluster, where a tenth of the population is expensive to reject, drawing
// with replacement made two seeds differ by a factor of two.
func (s *script) run(sp *spec, seq []dsps.StreamID, t target) {
	if sp.fill {
		s.fill(seq, t)
		return
	}
	order := s.shuffled(s.unadmitted)
	hosts := s.rng.Perm(sp.sub.hosts)
	cycles := 0
	for step := 1; step <= sp.steps && step <= len(order); step++ {
		s.churnStep(order[step-1], t)
		if step%readEvery == 0 {
			t.read()
		}
		if sp.failEvery > 0 && step%sp.failEvery == 0 {
			s.failCycle(dsps.HostID(hosts[cycles%len(hosts)]), t)
			cycles++
		}
	}
}

// retryOneIn is how often a fill withdraws the query it has just got
// admitted and submits it again.
const retryOneIn = 5

// fill submits the sequence in its generated order (duplicates included, as
// the paper's Fig. 4a/7a does). What arrives early is what gets in, so the
// order is not the seed's; the seed picks the submits after which the client
// withdraws the admitted query and submits it again. That puts removes at
// every fill level between other work, and leaves the path of the fill
// alone.
func (s *script) fill(seq []dsps.StreamID, t target) {
	isAdmitted := make(map[dsps.StreamID]bool)
	for i, q := range seq {
		in := t.submit(q)
		if in && s.rng.Intn(retryOneIn) == 0 {
			t.remove(q)
			in = t.submit(q)
			if !in {
				s.admitted = drop(s.admitted, q)
				isAdmitted[q] = false
			}
		}
		if in && !isAdmitted[q] {
			isAdmitted[q] = true
			s.admitted = append(s.admitted, q)
		}
		if (i+1)%readEvery == 0 {
			t.read()
		}
	}
}

// churnStep submits q and withdraws it again if it was admitted, so every
// step meets the state the round started from and the admitted set keeps its
// size. Only while host failures have left the set below that size does an
// admitted query stay.
func (s *script) churnStep(q dsps.StreamID, t target) {
	if !t.submit(q) {
		return
	}
	if len(s.admitted) >= s.level {
		t.remove(q)
		return
	}
	s.unadmitted = drop(s.unadmitted, q)
	s.admitted = append(s.admitted, q)
}

// failCycle fails host h, recovers it and resubmits every query the failure
// dropped, in the order the service listed them.
func (s *script) failCycle(h dsps.HostID, t target) {
	dropped := t.fail(h)
	for _, q := range dropped {
		s.admitted = drop(s.admitted, q)
	}
	t.recover(h)
	for _, q := range dropped {
		if t.submit(q) {
			s.admitted = append(s.admitted, q)
		} else {
			s.unadmitted = append(s.unadmitted, q)
		}
	}
	t.cycleDone()
}
