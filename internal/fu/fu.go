// Package fu models the execution resources of the model architecture:
// the pipelined functional units (as a latency table — every unit accepts
// one operation per cycle, like the CRAY-1 scalar units) and the single
// result bus onto which at most one functional unit may deliver a result
// in any clock cycle (§2: "only one function can output data onto the
// result bus in any clock cycle").
package fu

import (
	"fmt"
	"math/bits"

	"ruu/internal/isa"
)

// Latencies gives, for each unit class, the number of cycles between
// dispatching an operation to the unit and its result appearing on the
// result bus. All units are fully pipelined. An instruction's latency is
// l[u.Unit] for its predecoded isa.Uop u.
type Latencies [isa.NumUnits]int

// DefaultLatencies returns CRAY-1-like scalar unit latencies. The exact
// CRAY-1 values are not reproduced bit-for-bit; the relative magnitudes
// (logical 1, address add 2, scalar add 3, FP add/multiply 6/7,
// reciprocal 14, memory 5) are, which is what the paper's relative
// speedups depend on. The memory latency (5) and the branch penalties in
// internal/machine were calibrated so that the saturated RSTU/RUU
// speedups land where the paper's Tables 2-6 put them (EXPERIMENTS.md
// records the comparison).
func DefaultLatencies() Latencies {
	var l Latencies
	l[isa.UnitAInt] = isa.LatAInt
	l[isa.UnitAMul] = isa.LatAMul
	l[isa.UnitSLog] = isa.LatSLog
	l[isa.UnitSShift] = isa.LatSShift
	l[isa.UnitSAdd] = isa.LatSAdd
	l[isa.UnitFAdd] = isa.LatFAdd
	l[isa.UnitFMul] = isa.LatFMul
	l[isa.UnitFRecip] = isa.LatFRecip
	l[isa.UnitMem] = isa.LatMem
	l[isa.UnitMove] = isa.LatMove
	return l
}

// Validate reports an error if any executing unit class has a
// non-positive latency.
func (l Latencies) Validate() error {
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		if l[u] <= 0 {
			return fmt.Errorf("fu: unit %s has non-positive latency %d", u, l[u])
		}
	}
	return nil
}

// Max returns the largest latency.
func (l Latencies) Max() int {
	m := 0
	for _, v := range l {
		if v > m {
			m = v
		}
	}
	return m
}

// busWindow is the size of the result-bus reservation ring, one bit of
// a uint64 per cycle. It must exceed the largest latency plus slack for
// forwarded-load rescheduling.
const busWindow = 64

// ResultBus tracks reservations of the single result bus. A functional
// unit reserves the slot for cycle dispatch+latency at dispatch time (the
// reservation discipline of [17], which the paper adopts for the model
// architecture); dispatch stalls when the slot is taken.
type ResultBus struct {
	taken uint64 // bit cycle%busWindow: the slot is reserved
	base  int64  // cycles below base are in the past
}

// NewResultBus returns an empty bus.
func NewResultBus() *ResultBus { return &ResultBus{} }

// Reset clears all reservations and rewinds time to cycle 0.
func (b *ResultBus) Reset() {
	b.taken = 0
	b.base = 0
}

// Clear drops all reservations without rewinding time. Engines call it
// when flushing in-flight work (interrupt, misprediction recovery of the
// whole window).
func (b *ResultBus) Clear() {
	b.taken = 0
}

// Reserve claims the bus for the given cycle. It reports whether the
// claim succeeded (false if the slot was already taken).
func (b *ResultBus) Reserve(cycle int64) bool {
	bit := b.bit(cycle)
	if b.taken&bit != 0 {
		return false
	}
	b.taken |= bit
	return true
}

// Busy reports whether the bus is reserved for the given cycle.
func (b *ResultBus) Busy(cycle int64) bool {
	return b.taken&b.bit(cycle) != 0
}

// Advance informs the bus that time has reached the given cycle; slots
// before it are recycled.
func (b *ResultBus) Advance(cycle int64) {
	switch n := cycle - b.base; {
	case n >= busWindow:
		b.taken = 0
	case n > 0:
		b.taken &^= bits.RotateLeft64(1<<n-1, int(uint64(b.base)%busWindow))
	default:
		return
	}
	b.base = cycle
}

// bit returns the reservation bit of the given cycle.
func (b *ResultBus) bit(cycle int64) uint64 {
	if cycle < b.base {
		panic(fmt.Sprintf("fu: bus access for past cycle %d (base %d)", cycle, b.base))
	}
	if cycle >= b.base+busWindow {
		panic(fmt.Sprintf("fu: bus access for cycle %d too far beyond base %d", cycle, b.base))
	}
	return 1 << (uint64(cycle) % busWindow)
}
