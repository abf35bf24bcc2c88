// Package lockguard is the locks corpus for guarded fields: accesses with
// and without their mutex held.
package lockguard

import "sync"

type counter struct {
	mu sync.RWMutex
	n  int //sqpr:guarded-by mu
	//sqpr:guarded-by mu
	history []int
	free    int // unguarded on purpose
}

type badAnno struct {
	//sqpr:guarded-by nosuch
	x int // want "not a field of this struct"
}

func (c *counter) badRead() int {
	return c.n // want `guarded by "mu"`
}

func (c *counter) badWrite() {
	c.mu.RLock() // read lock does not license a write
	defer c.mu.RUnlock()
	c.n++ // want `guarded by "mu"`
}

func (c *counter) goodRead() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

func (c *counter) goodWrite(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = v
	c.history = append(c.history, v)
}

// unlockThenTouch: the lock taken further up is gone by the second access.
func (c *counter) unlockThenTouch() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `guarded by "mu"`
}

// earlyExitGood unlocks on a path that returns, which says nothing about
// the code after it; and locking again licenses again.
func (c *counter) earlyExitGood(bad bool) {
	c.mu.Lock()
	if bad {
		c.mu.Unlock()
		return
	}
	c.n++
	c.mu.Unlock()
	c.mu.RLock()
	c.free = c.n
	c.mu.RUnlock()
}

// branchRelease unlocks on one path only: after the merge the lock is not
// held on every path.
func (c *counter) branchRelease(fast bool) {
	c.mu.Lock()
	if fast {
		c.mu.Unlock()
	}
	c.n++ // want `guarded by "mu"`
	if !fast {
		c.mu.Unlock()
	}
}

// otherInstance holds c's lock, which does not guard d's field.
func (c *counter) otherInstance(d *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.n++ // want `guarded by "mu"`
}

// lockedHelper is called with mu already held.
//
//sqpr:locked mu
func (c *counter) lockedHelper() int { return c.n }

func (c *counter) unguardedOK() int { return c.free }

func newCounter() *counter {
	c := &counter{}
	c.n = 1 // constructor exemption: local composite literal
	return c
}

func (c *counter) closureBad() func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int {
		return c.n // want `guarded by "mu"`
	}
}

// tryBadOutside accesses the field after the conditional block, where the
// lock may never have been taken. TryLock never counts as holding.
func (c *counter) tryBadOutside() int {
	if c.mu.TryLock() {
		c.mu.Unlock()
	}
	return c.n // want `guarded by "mu"`
}

// tryRBadWrite writes under a read-try: still a race.
func (c *counter) tryRBadWrite() {
	if c.mu.TryRLock() {
		c.n++ // want `guarded by "mu"`
		c.mu.RUnlock()
	}
}

// deferredDirect proves holding through the pending unlock the caller's
// handed-over lock requires.
func (c *counter) deferredDirect() int {
	defer c.mu.RUnlock()
	return c.n
}

type wrapper struct{ c *counter }

func (o *wrapper) chainGood() int {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return o.c.n
}

func (o *wrapper) chainBad() int {
	return o.c.n // want `guarded by "mu"`
}
