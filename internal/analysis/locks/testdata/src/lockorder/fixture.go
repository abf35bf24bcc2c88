// Package lockorder is the locks corpus for acquisition order: declared
// hierarchies, contradictions, undeclared cycles, annotation-held entry
// states and self-deadlocks.
package lockorder

import "sync"

//sqpr:lock-order outer.a < outer.b

type outer struct {
	a sync.Mutex
	b sync.Mutex
}

// good follows the declared order; silent.
func good(o *outer) {
	o.a.Lock()
	o.b.Lock()
	o.b.Unlock()
	o.a.Unlock()
}

// goodDeferred holds a through a deferred unlock; still sanctioned.
func goodDeferred(o *outer) {
	o.a.Lock()
	defer o.a.Unlock()
	o.b.Lock()
	o.b.Unlock()
}

// contradict inverts the declared order.
func contradict(o *outer) {
	o.b.Lock()
	o.a.Lock() // want "contradicts the declared //sqpr:lock-order"
	o.a.Unlock()
	o.b.Unlock()
}

// goodRelease unlocks before taking the other lock: no edge at all.
func goodRelease(o *outer) {
	o.b.Lock()
	o.b.Unlock()
	o.a.Lock()
	o.a.Unlock()
}

// pair's locks have no declared order and are taken both ways round.
type pair struct {
	c sync.Mutex
	d sync.Mutex
}

func cThenD(p *pair) {
	p.c.Lock()
	p.d.Lock() // want "lock-order cycle"
	p.d.Unlock()
	p.c.Unlock()
}

func dThenC(p *pair) {
	p.d.Lock()
	p.c.Lock() // want "lock-order cycle"
	p.c.Unlock()
	p.d.Unlock()
}

// srv exercises the interprocedural and annotation-held cases.
type srv struct {
	e sync.Mutex
	f sync.Mutex
}

// withE runs with e held by contract, so its f acquisition is an e→f edge.
//
//sqpr:locked e
func (s *srv) withE() {
	s.f.Lock() // want "lock-order cycle"
	s.f.Unlock()
}

// other closes the cycle f→e through locksE's acquire summary.
func (s *srv) other() {
	s.f.Lock()
	s.locksE() // want "lock-order cycle"
	s.f.Unlock()
}

func (s *srv) locksE() {
	s.e.Lock()
	s.e.Unlock()
}

// gmu is a package-level lock class.
var gmu sync.Mutex

func selfDeadlock() {
	gmu.Lock()
	gmu.Lock() // want "already held"
	gmu.Unlock()
	gmu.Unlock()
}

// branchy: a merge only keeps locks held on every path, so the b
// acquisition after the conditional unlock records no edge.
func branchy(o *outer, fast bool) {
	o.a.Lock()
	if fast {
		o.a.Unlock()
	}
	o.b.Lock()
	o.b.Unlock()
	if !fast {
		o.a.Unlock()
	}
}

// tryLock acquisitions are conditional and stay out of the held set.
func tryLock(p *pair) {
	p.d.Lock()
	if p.c.TryLock() {
		p.c.Unlock()
	}
	p.d.Unlock()
}
