package main

import "time"

// The machines this benchmark is judged on are slices of shared hosts, and
// what a neighbour does on the same core moves every timing here by 10-25 %
// for seconds to minutes at a time (README.md, "Why times are scaled"). Run length does not average that out, so the benchmark measures
// the machine beside the program: a fixed reference kernel runs between the
// client's requests, off the clock, and every gated time is reported as if
// the kernel had taken refNominal, that is multiplied by refNominal over what
// the kernel took right then. The kernel is the benchmark's own code and
// touches nothing of the program under test, so a change to the program moves
// the program's times and not the yardstick.

// refNominal is what the kernel takes on the machine this was written on
// when it is quiet. It only fixes the unit: scaled times read as
// milliseconds of that machine.
const refNominal = 600 * time.Microsecond

// refKernel is a fixed piece of work of the three kinds a busy neighbour on
// the same core slows down, as it slows the planner: arithmetic that keeps
// several execution units busy at once, independent loads from a table the
// core's own cache holds, and streaming copies. Work that waits on one thing
// at a time hardly feels the neighbour: over rounds in which the solves moved
// by 8 %, a single dependent chain of multiply-adds moved by 2 % and a chain
// of loads over 32 MiB of memory by 5.5 %, so the kernel has neither.
type refKernel struct {
	table    []uint32 // one cycle through all of its 256 KiB
	src, dst []float64
	sink     float64
}

const (
	refTable  = 1 << 16 // entries of the load table
	refLoads  = 30_000  // per chain, four chains
	refFlops  = 100_000 // rounds of eight multiply-adds and four integer steps
	refStream = 1 << 16 // float64s per copy
	refCopies = 6
)

func newRefKernel() *refKernel {
	k := &refKernel{
		table: make([]uint32, refTable),
		src:   make([]float64, refStream),
		dst:   make([]float64, refStream),
	}
	// A full-period congruential map: following it visits every entry
	// before any twice, in an order no prefetcher guesses.
	for i := range k.table {
		k.table[i] = uint32((uint64(i)*2654435761 + 12345) & (refTable - 1))
	}
	for i := range k.src {
		k.src[i] = float64(i)
	}
	return k
}

// run does the work once and returns how long it took.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	var h0, h1, h2, h3 uint64 = 1, 2, 3, 4
	for i := 0; i < refFlops; i++ {
		a0 = a0*0.999 + 1
		a1 = a1*0.998 + 1
		a2 = a2*0.997 + 1
		a3 = a3*0.996 + 1
		a4 = a4*0.995 + 1
		a5 = a5*0.994 + 1
		a6 = a6*0.993 + 1
		a7 = a7*0.992 + 1
		h0 = h0*6364136223846793005 + 1
		h1 = h1*6364136223846793005 + 3
		h2 = (h2 ^ h0) + h1>>7
		h3 = (h3 + h2) ^ (h1 << 3)
	}
	x := a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + float64(h3&1)
	var b0, b1, b2, b3 uint32 = 0, refTable / 4, refTable / 2, 3 * refTable / 4
	for i := 0; i < refLoads; i++ {
		b0 = k.table[b0]
		b1 = k.table[b1]
		b2 = k.table[b2]
		b3 = k.table[b3]
	}
	x += float64(b0 + b1 + b2 + b3)
	for i := 0; i < refCopies; i++ {
		k.src[i] = x
		copy(k.dst, k.src)
	}
	k.sink += x + k.dst[0]
	return time.Since(start)
}

// scale converts a time measured while the kernel took ref into the time of
// a machine on which it takes refNominal.
func scale(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}

// lapClock times work that is not a client request (a set-up's prefill and
// recovery) in segments, each between two runs of the kernel and scaled by
// their mean. The kernel's own time is not counted.
type lapClock struct {
	k       *refKernel
	lastRef time.Duration
	mark    time.Time
	scaled  time.Duration
}

// start runs the kernel and begins a segment; after a pause it resumes.
func (c *lapClock) start() {
	c.lastRef = c.k.run()
	c.mark = time.Now()
}

// lap ends the running segment and begins the next.
func (c *lapClock) lap() {
	d := time.Since(c.mark)
	ref := c.k.run()
	c.scaled += scale(d, (c.lastRef+ref)/2)
	c.lastRef = ref
	c.mark = time.Now()
}
