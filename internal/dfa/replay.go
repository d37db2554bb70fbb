package dfa

import (
	"fmt"

	"ruu/internal/exec"
	"ruu/internal/fu"
	"ruu/internal/isa"
)

// Dynamic is what one functional replay of a program yields: the hazard
// census and the dataflow limit with and without the memory-dependence
// tightening, all over the same dynamic instruction stream.
type Dynamic struct {
	Census Census
	// Bound has the memory-dependence tightening; BoundRegOnly has
	// register dependences only (BoundConfig.NoMemDep).
	Bound, BoundRegOnly Bound
}

// Replay runs p once on the functional executor, starting from st
// (which it mutates), and returns what ComputeCensus(p, st,
// cfg.MaxInstr) and ComputeBound with and without cfg.NoMemDep would
// return, from one replay instead of three (cfg.NoMemDep itself is
// ignored). The census counts every instruction the replay executes, so
// an exhausted budget is reported as the census's.
func Replay(p *isa.Program, st *exec.State, cfg BoundConfig) (Dynamic, error) {
	r := newReplay(p, st, cfg, true, true)
	for r.step() {
	}
	d := Dynamic{Census: r.censusResult(), Bound: r.boundResult(&r.tight), BoundRegOnly: r.boundResult(&r.regOnly)}
	if r.exhausted {
		return d, fmt.Errorf("dfa: census instruction budget %d exhausted at pc=%d", r.maxInstr, st.PC)
	}
	return d, nil
}

// replay is the one replay loop behind ComputeCensus, ComputeBound and
// Replay: each step executes one instruction on the functional executor
// and feeds it to the census and to each enabled bound.
type replay struct {
	p         *isa.Program
	st        *exec.State
	uops      []isa.Uop // per static instruction
	maxInstr  int64
	lat       fu.Latencies
	fwdLat    int64 // load latency when forwarding may apply
	exhausted bool
	trap      *exec.Trap

	dyn  int64 // dynamic instructions executed
	slot int64 // earliest decode slot of the next instruction

	// Census state: whether each register has been written, and read
	// since its last write.
	c         Census
	written   [isa.NumRegs]bool
	readSince [isa.NumRegs]bool

	tight, regOnly boundTrack
}

// boundTrack accumulates one dataflow limit.
type boundTrack struct {
	on     bool
	ready  [isa.NumRegs]int64 // completion time of each register's latest writer
	crit   int64
	edges  int64 // store→load dependence edges
	stores *storeTable
}

// newReplay prepares a replay of p from st. tight and regOnly enable
// the bound with and without the memory-dependence tightening.
func newReplay(p *isa.Program, st *exec.State, cfg BoundConfig, tight, regOnly bool) replay {
	if cfg.Lat == (fu.Latencies{}) {
		cfg.Lat = fu.DefaultLatencies()
	}
	if cfg.MaxInstr <= 0 {
		cfg.MaxInstr = exec.DefaultMaxInstructions
	}
	fwd := cfg.Lat[isa.UnitMem]
	if cfg.FwdLatency > 0 && cfg.FwdLatency < fwd {
		fwd = cfg.FwdLatency
	}
	r := replay{p: p, st: st, maxInstr: cfg.MaxInstr, lat: cfg.Lat, fwdLat: int64(fwd)}
	r.uops = isa.Predecode(p)
	r.tight.on, r.regOnly.on = tight, regOnly
	if tight {
		r.tight.stores = &storeTable{index: map[int64]int32{}, lastKey: -1}
	}
	return r
}

// step executes one instruction and reports whether the replay goes on:
// false once the program halts, traps, or exhausts the budget.
func (r *replay) step() bool {
	st := r.st
	if st.Halted {
		return false
	}
	if r.dyn >= r.maxInstr {
		r.exhausted = true
		return false
	}
	pc := st.PC
	// The effective address must be sampled before the step: a load may
	// overwrite its own base register.
	addr := int64(-1)
	if r.tight.on && pc >= 0 && pc < len(r.p.Instructions) {
		if pre := r.p.Instructions[pc]; pre.Op.IsMem() {
			addr = exec.EffAddr(pre, st.Reg(isa.A(int(pre.J))))
		}
	}
	if _, trap := st.Step(r.p); trap != nil {
		r.trap = trap
		return false
	}
	r.dyn++
	u := &r.uops[pc] // the step succeeded, so pc was in range
	taken := st.PC != pc+1
	r.count(u, taken)

	// An instruction cannot leave the single decode stage before its
	// slot in the in-order stream: one instruction per cycle, plus at
	// least one dead fetch cycle after every jump and every taken
	// conditional branch. (A conditional branch whose target is its own
	// fall-through cannot be told apart from an untaken one here;
	// skipping it only loosens the bound.)
	slot := r.slot
	r.slot++
	if u.Branch && (!u.Cond || taken) {
		r.slot++
	}
	if r.tight.on {
		r.tight.issue(u, slot, addr, r.fwdLat, &r.lat)
	}
	if r.regOnly.on {
		r.regOnly.issue(u, slot, -1, r.fwdLat, &r.lat)
	}
	return true
}

// count tallies one executed instruction into the hazard census.
func (r *replay) count(u *isa.Uop, taken bool) {
	c := &r.c
	if u.Branch {
		c.Branches++
		if taken {
			c.Taken++
		}
	}
	// A write hazard pairs this instruction with an *earlier* one, so
	// the destination's prior state is sampled before this instruction's
	// own reads are recorded (reading your own destination operand is
	// not a hazard).
	dst := -1
	prevWritten, prevRead := false, false
	if u.HasDst {
		dst = u.Dst.Flat()
		prevWritten, prevRead = r.written[dst], r.readSince[dst]
	}
	for _, s := range u.Src[:u.NSrc] {
		f := s.Flat()
		if r.written[f] {
			c.RAW++
		}
		r.readSince[f] = true
	}
	if dst >= 0 {
		if prevWritten {
			c.WAW++
		}
		if prevRead {
			c.WAR++
		}
		r.written[dst] = true
		r.readSince[dst] = false
	}
}

// issue places one executed instruction in the dependence DAG: it
// starts at the later of its decode slot and its sources' ready times
// (and, for a load of a stored word, the store's ready time), and
// completes its unit latency later. addr is the effective address of a
// memory instruction when the memory-dependence tightening is on, -1
// otherwise.
func (b *boundTrack) issue(u *isa.Uop, start, addr, fwdLat int64, lat *fu.Latencies) {
	for _, s := range u.Src[:u.NSrc] {
		if t := b.ready[s.Flat()]; t > start {
			start = t
		}
	}
	firstTouch := false
	if addr >= 0 {
		e := b.stores.entry(addr)
		if u.Load {
			switch t := *e; {
			case t >= stored:
				// The load returns the latest store's data: it cannot
				// start before that value existed.
				b.edges++
				if t-stored > start {
					start = t - stored
				}
			case t == untouched:
				// Nothing to forward from: the value comes from memory
				// at the full latency.
				firstTouch = true
				*e = touchedByLoad
			}
		} else if u.Store {
			// The stored value cannot be delivered to any load before
			// the store knows both its address and its data, its two
			// sources.
			*e = stored + max(b.ready[u.Src[0].Flat()], b.ready[u.Src[1].Flat()])
		}
	}
	var l int64
	switch u.Unit {
	case isa.UnitMem:
		// Loads may be satisfied by load-register forwarding, so the
		// dependence edge is only as heavy as the cheaper path, except
		// on the address's first touch, where no forwarding source can
		// exist.
		l = fwdLat
		if firstTouch {
			l = int64(lat[isa.UnitMem])
		}
	case isa.UnitNone:
	default:
		l = int64(lat[u.Unit])
	}
	done := start + l
	if done > b.crit {
		b.crit = done
	}
	if u.HasDst {
		b.ready[u.Dst.Flat()] = done
	}
}

func (r *replay) censusResult() Census {
	c := r.c
	c.DynInstrs = r.dyn
	c.Trap = r.trap
	return c
}

// boundResult is b's dataflow limit; Cycles is left zero when the
// budget ran out.
func (r *replay) boundResult(b *boundTrack) Bound {
	out := Bound{CritPath: b.crit, DynInstrs: r.dyn, MemDepEdges: b.edges, Trap: r.trap}
	if !r.exhausted {
		out.Cycles = max(b.crit, r.slot)
	}
	return out
}

// Memory-dependence states of one word in a storeTable.
const (
	untouched     = int64(0) // no access yet
	touchedByLoad = int64(1) // loads only: later loads may forward
	stored        = int64(2) // stored + t: the latest store was ready at t
)

// chunkWords is the storeTable's allocation unit in words.
const chunkWords = 64

// storeTable holds the memory-dependence state of the words a replay
// touches, in chunks allocated on first touch, so its size follows the
// program's footprint rather than the memory image.
type storeTable struct {
	chunks  [][chunkWords]int64
	index   map[int64]int32 // chunk number → position in chunks
	lastKey int64           // chunk number of the last lookup, -1 before any
	last    int32
}

// entry returns the state of word addr (addr >= 0).
func (t *storeTable) entry(addr int64) *int64 {
	k := addr / chunkWords
	if k != t.lastKey {
		i, ok := t.index[k]
		if !ok {
			i = int32(len(t.chunks))
			t.chunks = append(t.chunks, [chunkWords]int64{})
			t.index[k] = i
		}
		t.lastKey, t.last = k, i
	}
	return &t.chunks[t.last][addr%chunkWords]
}
