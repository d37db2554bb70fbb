// Package tagunit implements the paper's reservation-station engines,
// §3.1–§3.2.3 and §5. They are all variations on Tomasulo's algorithm
// that differ in how the reservation stations are organised, where the
// tags come from and when results reach the architectural state:
//
//   - Tomasulo's algorithm (§3.1): a tag and tag-matching hardware for
//     every register (the paper's objection: 144 tag-matching units),
//     with reservation stations distributed per functional unit. A
//     station is the tag of its result and is held until the result is
//     broadcast.
//   - A separate Tag Unit (§3.2.1, Figure 2): tags are pooled in a TU
//     sized for the number of *currently active* destination registers;
//     instruction issue blocks when the TU is full. A station is
//     released when its instruction dispatches to a functional unit (the
//     tag travels with the operation).
//   - A merged RS pool (§3.2.2): the distributed stations are combined
//     into one shared pool so no unit starves while another idles.
//   - The RS Tag Unit (§3.2.3, Figure 4): the merged pool with no
//     separate TU, so every entry is simultaneously a tag and a
//     reservation station, held while its instruction transits a
//     functional unit.
//   - The Register Update Unit (§5): the RSTU managed as a FIFO queue
//     (Queue), with RUU_Head and RUU_Tail pointers. Results reach the
//     register file and memory only when their entry commits from the
//     head, in program order, which makes interrupts precise. Because
//     results return in order, a tag is just the register number
//     appended with its Latest Instance (LI) counter; the Number of
//     Instances (NI) counter caps a register at 2^n − 1 instances in
//     flight. Committed values are broadcast again on the commit bus,
//     which waiting operands monitor in the no-bypass organisations.
//
// The pool organisations update the register file out of program order
// (when results broadcast), so none of them provides precise
// interrupts; the queue is the paper's answer to that.
//
// The queue has three bypass organisations (§6): BypassFull (Table 4)
// reads completed results out of the queue at issue; BypassNone
// (Table 5) has no bypass; BypassLimited (Table 6) duplicates the A
// register file as a future file. It also implements the §7 extension,
// branch prediction with conditional execution (speculate.go).
//
// Wake-up and selection are event driven, so a cycle costs work in
// proportion to its bus events and ready entries, not to the engine's
// size: each tag has a list of the operands waiting for it, dispatch
// walks age-ordered ready lists, the pool takes stations and Tag Unit
// entries from free lists, and in-flight results are filed by the
// result-bus cycle they reserved.
//
// The Paths setting reproduces Table 3's experiment: the number of data
// paths from the stations to the functional units, i.e. the number of
// instructions that may dispatch per cycle (the decode unit still issues
// at most one instruction per cycle, which is why the paper finds a
// second path makes little difference).
package tagunit

import (
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/memsys"
	"ruu/internal/obs"
)

// Config selects the organisation. The paper's machines are:
//
//	Tomasulo:  {Stations: PerUnit(n)}
//	Tag Unit:  {Stations: PerUnit(n), TagUnitSize: t}
//	RS pool:   {Stations: Pool(n), TagUnitSize: t}
//	RSTU:      {Stations: Pool(n), Paths: p}
//	RUU:       {Stations: Queue(n), Bypass: b}
type Config struct {
	// Stations is the reservation-station organisation (the zero value
	// is PerUnit(DefaultPerUnit)).
	Stations Stations
	// TagUnitSize caps the number of in-flight destination registers
	// (active tags) held in a separate Tag Unit. Zero means no Tag Unit:
	// each station is its own tag and is held until its result is
	// broadcast. Ignored by Queue, whose tags are the NI/LI counters.
	TagUnitSize int
	// Paths is the number of dispatch paths (default 1).
	Paths int
	// Bypass is the queue's operand-bypass organisation.
	Bypass Bypass
	// CounterBits is the queue's NI/LI counter width n: up to 2^n − 1
	// instances of a register may be in flight (default
	// isa.PaperCounterBits, at most 8).
	CounterBits int
	// CommitWidth is the number of queue entries that may commit per
	// cycle (default isa.PaperCommitWidth: one path from the queue to
	// the register file).
	CommitWidth int
}

// Stations is an organisation of the reservation stations: distributed
// per functional unit, merged into one shared pool, or that pool managed
// as a circular queue.
type Stations struct {
	n    int
	kind organisation
}

type organisation uint8

const (
	perUnit organisation = iota
	pooled
	queued
)

// PerUnit distributes n stations to each functional-unit class
// (DefaultPerUnit if n <= 0).
func PerUnit(n int) Stations { return Stations{n: n} }

// Pool merges n stations into one pool shared by every unit (§3.2.2),
// so no unit starves while another idles (DefaultPoolSize if n <= 0).
func Pool(n int) Stations { return Stations{n, pooled} }

// Queue is a pool of n stations managed as a circular queue that retires
// in program order: the RUU (isa.PaperDefaultRUUEntries if n <= 0).
func Queue(n int) Stations { return Stations{n, queued} }

const (
	// DefaultPerUnit is the distributed station count per functional
	// unit (the IBM 360/91 floating-point unit had two to three
	// stations per unit).
	DefaultPerUnit = 3
	// DefaultPoolSize is the pooled station count.
	DefaultPoolSize = 10
)

// Bypass selects the queue's operand-bypass organisation.
type Bypass uint8

const (
	// BypassFull reads completed-but-uncommitted results straight out of
	// the queue at issue time (Table 4).
	BypassFull Bypass = iota
	// BypassNone provides no bypass: a value is obtained from the
	// register file, from the result bus, or from the commit bus
	// (Table 5).
	BypassNone
	// BypassLimited duplicates the A register file as a future file
	// (Table 6); other files behave as in BypassNone.
	BypassLimited
)

func (b Bypass) String() string {
	switch b {
	case BypassFull:
		return "full"
	case BypassNone:
		return "none"
	case BypassLimited:
		return "limited"
	default:
		return "bypass?"
	}
}

// operand is a source operand: a value, or the tag of the result it
// waits for. A tag indexes the waiter lists: for the queue it is the
// register number appended with the awaited LI instance; for the pool
// organisations it is the station holding the tag or, with a separate
// Tag Unit, the TU entry.
type operand struct {
	ready bool
	tag   int32
	value int64
}

type memPhase uint8

const (
	memNone    memPhase = iota // not a memory operation
	memUnbound                 // effective address not yet computed
	memBound                   // address bound to a load register
)

// readyKind names the ready list a station is on.
type readyKind uint8

const (
	offReady readyKind = iota
	memReady           // a bound memory operation, not yet executed
	aluReady           // a unit operation with both operands, not yet dispatched
)

type station struct {
	used       bool
	dispatched bool      // in a functional unit (or a store that has executed)
	executed   bool      // queue: the result is on hand, awaiting commit
	on         readyKind // the ready list holding the station
	id         int64     // dynamic-instruction id (observability)
	seq        int64
	pc         int      // indexes the program and its micro-op table
	unit       isa.Unit // the functional unit, for its latency
	issueCycle int64
	// readyAt is the cycle in which the last waiting operand was gated
	// in from a bus; a station may dispatch only in a later cycle (gate-in
	// and compare take a stage, so a value caught off the bus is usable
	// by the dispatch logic the next cycle).
	readyAt int64

	op1, op2 operand

	hasDest bool
	dest    isa.Reg
	tag     int32 // the destination's tag
	value   int64 // the result, or a store's data

	phase      memPhase
	isStore    bool
	addr       int64
	binding    memsys.Binding
	memChecked bool       // trap check performed (exactly once per operation)
	fault      *exec.Trap // queue: raised when the entry reaches the head

	// §7 speculation (queue only).
	isBranch     bool
	predTaken    bool
	resolved     bool
	taken        bool
	mispredicted bool
}

// flight is an operation in a functional unit, filed in the ring slot of
// the result-bus cycle it reserved. station is the index of the station
// held until the broadcast, or none if it was released at dispatch; seq
// identifies the occupant, so a result whose entry was squashed
// meanwhile is discarded.
type flight struct {
	live    bool
	station int32
	tag     int32
	seq     int64
	id      int64 // dynamic-instruction id (observability)
	pc      int
	dest    isa.Reg
	value   int64
	binding memsys.Binding
}

// busEvent is this cycle's result-bus broadcast, if live.
type busEvent struct {
	live  bool
	tag   int32
	value int64
}

// none ends a list.
const none = -1

// list is a doubly linked list of nodes threaded through a pair of link
// arrays (next, prev), oldest node first.
type list struct{ first, last int32 }

var emptyList = list{none, none}

// insertAfter links node n after node at, or at the front if at is none.
func (l *list) insertAfter(next, prev []int32, at, n int32) {
	succ := l.first
	if at == none {
		l.first = n
	} else {
		succ, next[at] = next[at], n
	}
	prev[n], next[n] = at, succ
	if succ == none {
		l.last = n
	} else {
		prev[succ] = n
	}
}

// remove unlinks node n.
func (l *list) remove(next, prev []int32, n int32) {
	p, s := prev[n], next[n]
	if p == none {
		l.first = s
	} else {
		next[p] = s
	}
	if s == none {
		l.last = p
	} else {
		prev[s] = p
	}
}

// Engine is the reservation-station issue engine.
type Engine struct {
	cfg   Config
	ctx   *issue.Context
	prog  []isa.Instruction // ctx.Prog's instructions, by pc
	paths int
	queue bool // Stations is a Queue: retirement at in-order commit

	stations []station
	// unitOf[i] is the unit class owning station i in distributed mode
	// (nil when any station serves any unit).
	unitOf []isa.Unit
	// head and tail delimit the queue (queue only).
	head, tail int

	// The register status: ni[r] counts the in-flight instances of r
	// (the queue's NI counter; 0 or 1, a busy bit, for the pool) and
	// regTag[r] is the tag of the latest one (the queue's LI counter is
	// its low liBits bits).
	ni       [isa.NumRegs]uint8
	regTag   [isa.NumRegs]int32
	instMask uint8 // 2^n − 1 for the queue's n-bit counters
	liBits   int

	// Future file for the A registers (BypassLimited): the last value
	// broadcast for each, with its tag.
	ff      [isa.NumA]int64
	ffTag   [isa.NumA]int32
	ffValid [isa.NumA]bool

	// waiting[t] lists the operands waiting for tag t, oldest first:
	// operand k of station i is node 2i+k of wNext/wPrev. It is the
	// inverse of the register status, so a broadcast visits only the
	// operands it wakes.
	waiting      []list
	wNext, wPrev []int32
	// producer[t] is the queue entry producing tag t (the full bypass
	// reads an executed result out of it).
	producer []int32

	// ready[memReady] and ready[aluReady] list the stations the dispatch
	// logic may consider, oldest first, through rNext/rPrev.
	ready        [3]list
	rNext, rPrev []int32

	// free[u] stacks the free stations of unit class u (class 0 for a
	// shared pool) and tuFree the free Tag Unit entries (pool
	// organisations only).
	free   [isa.NumUnits][]int32
	tuFree []int32

	// memQueue is a ring of the station indices of unbound memory
	// operations, program order from memHead. Its length is a power of
	// two at least the station count, so a position is taken with
	// memMask rather than a division every cycle.
	memQueue                 []int32
	memHead, memLen, memMask int

	// ring files in-flight results by the result-bus cycle each one
	// reserved: slot c&ringMask holds the result broadcast in cycle c.
	// Bus.Reserve grants each cycle once, and the ring spans the longest
	// latency, so a slot holds at most one result.
	ring     []flight
	ringMask int64
	// onBus is this cycle's broadcast, for the decode-stage branch that
	// is "monitoring the bus".
	onBus busEvent

	nextSeq  int64
	inFlight int
	retired  int64
	trap     *exec.Trap

	outcomes, outBuf []issue.BranchOutcome
	// Architectural branch counters (committed branches only).
	comBranches, comTaken, comMispredicts int64
}

// New returns an engine with the given organisation. It sizes the
// waiter lists, ready lists and memory queue; Reset sizes the flight
// ring from the latencies, and Flush fills the free lists.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, paths: max(cfg.Paths, 1)}
	n := cfg.Stations.n
	switch cfg.Stations.kind {
	case queued:
		if n <= 0 {
			n = isa.PaperDefaultRUUEntries
		}
		if e.cfg.CounterBits <= 0 {
			e.cfg.CounterBits = isa.PaperCounterBits
		}
		e.cfg.CounterBits = min(e.cfg.CounterBits, 8)
		if e.cfg.CommitWidth <= 0 {
			e.cfg.CommitWidth = isa.PaperCommitWidth
		}
		e.cfg.TagUnitSize = 0
		e.queue = true
		e.liBits = e.cfg.CounterBits
		e.instMask = uint8(1<<e.liBits - 1)
		e.stations = make([]station, n)
	case pooled:
		if n <= 0 {
			n = DefaultPoolSize
		}
		e.stations = make([]station, n)
	case perUnit:
		if n <= 0 {
			n = DefaultPerUnit
		}
		for u := isa.Unit(1); u < isa.NumUnits; u++ {
			for i := 0; i < n; i++ {
				e.stations = append(e.stations, station{})
				e.unitOf = append(e.unitOf, u)
			}
		}
	}
	n = len(e.stations)
	tags := n
	switch {
	case e.queue:
		tags = isa.NumRegs << e.liBits
		e.producer = make([]int32, tags)
	case e.cfg.TagUnitSize > 0:
		tags = e.cfg.TagUnitSize
	}
	e.waiting = make([]list, tags)
	e.wNext, e.wPrev = make([]int32, 2*n), make([]int32, 2*n)
	e.rNext, e.rPrev = make([]int32, n), make([]int32, n)
	qs := 1
	for qs < n {
		qs <<= 1
	}
	e.memQueue = make([]int32, qs)
	e.memMask = qs - 1
	return e
}

// classOf returns the free list serving unit class u: its own in
// distributed mode, the shared list 0 otherwise.
func (e *Engine) classOf(u isa.Unit) isa.Unit {
	if e.unitOf == nil {
		return 0
	}
	return u
}

// class returns the free list station i belongs to.
func (e *Engine) class(i int) isa.Unit {
	if e.unitOf == nil {
		return 0
	}
	return e.unitOf[i]
}

// Name implements issue.Engine.
func (e *Engine) Name() string {
	switch {
	case e.queue:
		return "ruu-" + e.cfg.Bypass.String()
	case e.cfg.TagUnitSize > 0 && e.unitOf == nil:
		return "tu-pool"
	case e.cfg.TagUnitSize > 0:
		return "tu-dist"
	case e.unitOf != nil:
		return "tomasulo"
	case e.paths > 1:
		return "rstu-2p"
	default:
		return "rstu"
	}
}

// Reset implements issue.Engine.
func (e *Engine) Reset(ctx *issue.Context) {
	e.ctx = ctx
	e.prog = ctx.Prog.Instructions
	size := 1
	for size <= max(ctx.Lat.Max(), ctx.FwdLatency) {
		size <<= 1
	}
	if len(e.ring) != size {
		e.ring = make([]flight, size)
	}
	e.ringMask = int64(size - 1)
	e.nextSeq = 0
	e.retired = 0
	e.comBranches, e.comTaken, e.comMispredicts = 0, 0, 0
	e.Flush()
	ctx.Bus.Reset()
}

// next returns the queue position after p.
func (e *Engine) next(p int) int {
	if p++; p == len(e.stations) {
		return 0
	}
	return p
}

// retire writes one instruction's effect to the architectural state:
// memory at addr for a store, otherwise register r. It is the engine's
// only writer of that state; the discipline decides when it is called —
// at result broadcast (and store execution) for the pool organisations,
// at in-order commit for the queue.
func (e *Engine) retire(r isa.Reg, store bool, addr, v int64) {
	if !store {
		e.ctx.State.SetReg(r, v)
		return
	}
	if f := e.ctx.State.Mem.Write(addr, v); f != nil {
		panic("tagunit: unexpected fault after bind-time check: " + f.Error())
	}
}

// BeginCycle broadcasts the result filed for this cycle, then the queue
// commits from its head.
func (e *Engine) BeginCycle(c int64) {
	e.onBus.live = false
	if fl := &e.ring[c&e.ringMask]; fl.live {
		fl.live = false
		e.broadcast(c, fl)
	}
	if e.queue {
		e.commit(c)
	}
}

// broadcast puts one result on the result bus: waiting operands gate in
// matching tags, and a load's value becomes forwardable to younger
// chained loads as its load-register claim ends. The pool organisations
// then retire the instruction — the register file takes the value if the
// tag is still the latest for its register, and the tag and a station
// held as the tag are freed — while the queue keeps the result for
// commit.
func (e *Engine) broadcast(c int64, fl *flight) {
	var s *station
	if fl.station != none {
		s = &e.stations[fl.station]
		if !s.used || s.seq != fl.seq {
			return // squashed while in flight; the bus cycle stays consumed
		}
	}
	e.ctx.Observe(obs.KindWriteback, c, fl.id, fl.pc)
	e.deliver(c, fl.tag, fl.value)
	e.onBus = busEvent{true, fl.tag, fl.value}
	if fl.binding.Valid() {
		e.ctx.LoadRegs.SetData(fl.binding, fl.value)
		e.ctx.LoadRegs.Release(fl.binding)
	}
	if e.queue {
		s.executed = true
		s.binding = memsys.Invalid
		if e.cfg.Bypass == BypassLimited && fl.dest.File == isa.FileA {
			e.ff[fl.dest.Idx], e.ffTag[fl.dest.Idx], e.ffValid[fl.dest.Idx] = fl.value, fl.tag, true
		}
		return
	}
	// A result whose tag is no longer the latest for its register must
	// not overwrite it: a newer instance owns it (the paper permits the
	// update but never requires it; suppressing it keeps state correct).
	if f := fl.dest.Flat(); e.ni[f] > 0 && e.regTag[f] == fl.tag {
		e.retire(fl.dest, false, 0, fl.value)
		e.ni[f] = 0
	}
	if e.cfg.TagUnitSize > 0 {
		e.tuFree = append(e.tuFree, fl.tag)
	}
	if s != nil {
		e.release(int(fl.station))
	}
	e.ctx.Observe(obs.KindCommit, c, fl.id, fl.pc)
	e.inFlight--
	e.retired++
}

// deliver gates a value into the operands waiting for tag, oldest first,
// and resolves the branches among them; an operation whose last operand
// arrives joins the ready list. A mispredicted branch squashes only
// younger entries, which the walk has not reached: the squash unlinks
// them from this list.
func (e *Engine) deliver(c int64, tag int32, v int64) {
	l := &e.waiting[tag]
	for n := l.first; n != none; n = e.wNext[n] {
		idx := int(n >> 1)
		s := &e.stations[idx]
		op := &s.op1
		if n&1 != 0 {
			op = &s.op2
		}
		op.ready, op.value = true, v
		s.readyAt = c
		switch {
		case s.isBranch:
			e.resolveBranch(c, idx)
		case s.phase == memNone && s.op1.ready && s.op2.ready:
			e.makeReady(idx, aluReady)
		}
	}
	*l = emptyList
}

// wait links operand k of station idx, which waits for tag, on the tag's
// waiter list. Operands enter in program order, so the list stays
// oldest first.
func (e *Engine) wait(idx, k int, tag int32) {
	l := &e.waiting[tag]
	l.insertAfter(e.wNext, e.wPrev, l.last, int32(2*idx+k))
}

// unwait unlinks the waiting operands of station idx (it is being
// squashed).
func (e *Engine) unwait(idx int) {
	s := &e.stations[idx]
	if !s.op1.ready {
		e.waiting[s.op1.tag].remove(e.wNext, e.wPrev, int32(2*idx))
	}
	if !s.op2.ready {
		e.waiting[s.op2.tag].remove(e.wNext, e.wPrev, int32(2*idx+1))
	}
}

// makeReady files station idx on ready list k in age order, searching
// from the youngest end.
func (e *Engine) makeReady(idx int, k readyKind) {
	s := &e.stations[idx]
	s.on = k
	l := &e.ready[k]
	at := l.last
	for at != none && e.stations[at].seq > s.seq {
		at = e.rPrev[at]
	}
	l.insertAfter(e.rNext, e.rPrev, at, int32(idx))
}

// unready takes station idx off its ready list, if it is on one.
func (e *Engine) unready(idx int) {
	if s := &e.stations[idx]; s.on != offReady {
		e.ready[s.on].remove(e.rNext, e.rPrev, int32(idx))
		s.on = offReady
	}
}

// release empties pool station idx and returns it to its free list.
func (e *Engine) release(idx int) {
	e.unready(idx)
	e.stations[idx] = station{}
	u := e.class(idx)
	e.free[u] = append(e.free[u], int32(idx))
}

// commit retires up to CommitWidth executed entries from the queue's
// head, in program order. A faulting instruction at the head raises its
// trap with the architectural state precise: everything older has
// committed, nothing younger has touched it. Committed register values
// are broadcast again on the commit bus (the bus between the queue and
// the register file) for operands that issued after the result bus had
// carried them.
func (e *Engine) commit(c int64) {
	for n := 0; n < e.cfg.CommitWidth && e.inFlight > 0; n++ {
		s := &e.stations[e.head]
		if s.fault != nil {
			e.trap = s.fault
			return
		}
		if !s.executed {
			return
		}
		if s.isStore {
			e.retire(s.dest, true, s.addr, s.value)
			e.ctx.LoadRegs.Release(s.binding)
		}
		if s.hasDest {
			e.retire(s.dest, false, 0, s.value)
			e.ni[s.dest.Flat()]--
			e.deliver(c, s.tag, s.value)
		}
		if s.isBranch {
			e.comBranches++
			if s.taken {
				e.comTaken++
			}
			if s.mispredicted {
				e.comMispredicts++
			}
		}
		e.ctx.Observe(obs.KindCommit, c, s.id, s.pc)
		*s = station{}
		e.head = e.next(e.head)
		e.inFlight--
		e.retired++
	}
}

// Dispatch implements issue.Engine: first the memory-address frontier
// advances (the memory unit computes one effective address per cycle, in
// program order among memory operations — §3.2.1.2), then up to Paths
// ready instructions dispatch to the functional units, loads and stores
// first, then oldest-first (§5's priority rule). Only the ready lists are
// walked; an entry that became ready this cycle waits for the next.
func (e *Engine) Dispatch(c int64) {
	e.advanceMemFrontier(c)

	budget := e.paths
	for idx := e.ready[memReady].first; idx != none && budget > 0; {
		next := e.rNext[idx]
		if s := &e.stations[idx]; s.issueCycle < c && s.readyAt < c && e.tryMemOp(c, int(idx)) {
			budget--
		}
		idx = next
	}
	for idx := e.ready[aluReady].first; idx != none && budget > 0; {
		next := e.rNext[idx]
		if s := &e.stations[idx]; s.issueCycle < c && s.readyAt < c {
			lat := int64(e.ctx.Lat[s.unit])
			if e.ctx.Bus.Reserve(c + lat) {
				e.start(c, int(idx), c+lat, exec.ALU(e.prog[s.pc], s.op1.value, s.op2.value))
				budget--
			}
		}
		idx = next
	}
}

// start sends station idx's operation into a functional unit, filing its
// result for broadcast at cycle done. With a separate Tag Unit the
// station is released now (the tag travels with the operation);
// otherwise it is held until the broadcast.
func (e *Engine) start(c int64, idx int, done, value int64) {
	s := &e.stations[idx]
	fl := &e.ring[done&e.ringMask]
	if fl.live {
		panic("tagunit: two results filed for one result-bus cycle")
	}
	held := int32(idx)
	if e.cfg.TagUnitSize > 0 {
		held = none
	}
	s.value, s.dispatched = value, true
	*fl = flight{true, held, s.tag, s.seq, s.id, s.pc, s.dest, value, s.binding}
	e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	if held == none {
		e.release(idx)
	} else {
		e.unready(idx)
	}
}

// memAt returns the k-th position of the memory queue from its head.
func (e *Engine) memAt(k int) *int32 {
	return &e.memQueue[(e.memHead+k)&e.memMask]
}

// popMem drops the head of the memory queue.
func (e *Engine) popMem() {
	e.memHead = (e.memHead + 1) & e.memMask
	e.memLen--
}

// advanceMemFrontier computes the effective address of the oldest unbound
// memory operation whose base register is available, binding it to a load
// register. At most one address per cycle; younger memory operations
// cannot bind before older ones.
func (e *Engine) advanceMemFrontier(c int64) {
	if e.trap != nil || e.memLen == 0 {
		return
	}
	idx := int(*e.memAt(0))
	s := &e.stations[idx]
	if s.issueCycle >= c || s.readyAt >= c || !s.op1.ready {
		return
	}
	addr := exec.EffAddr(e.prog[s.pc], s.op1.value)
	if !s.memChecked {
		s.memChecked = true
		if t := issue.MemTrap(e.ctx, s.pc, addr); t != nil {
			if !e.queue {
				// Imprecise: the trap is raised as soon as it is
				// detected, with younger and older work still in flight.
				e.trap = t
				return
			}
			// Precise: the fault is recorded in the entry and raised
			// when the entry reaches the head.
			s.fault, s.addr, s.phase, s.executed = t, addr, memBound, true
			e.popMem()
			return
		}
	}
	if !e.ctx.LoadRegs.CanBind(addr) {
		return // no load register obtainable; retry next cycle
	}
	// A load with no pending same-address operation goes straight to
	// memory: the address computation IS its dispatch to the memory
	// unit, so it reserves the result bus here rather than competing for
	// a dispatch path.
	toMemory := !s.isStore && !e.ctx.LoadRegs.Pending(addr)
	lat := int64(e.ctx.Lat[isa.UnitMem])
	if toMemory && !e.ctx.Bus.Reserve(c+lat) {
		return // bus slot taken; retry next cycle
	}
	b, toMem, ok := e.ctx.LoadRegs.Bind(addr, s.isStore)
	if !ok {
		return
	}
	s.addr, s.binding = addr, b
	s.phase = memBound
	e.popMem()
	if !toMem {
		e.makeReady(idx, memReady)
		return
	}
	v, f := e.ctx.State.Mem.Read(addr)
	if f != nil {
		panic("tagunit: unexpected fault after bind-time check: " + f.Error())
	}
	e.start(c, idx, c+lat, v)
}

// tryMemOp attempts to complete a bound memory operation. A store
// executes once its data operand is ready: its data becomes forwardable
// to younger loads, and the pool organisations write memory at once —
// after every older store to the same address has — while the queue
// writes it at commit. A forwarded load takes its value off the
// load-register chain and schedules a result broadcast. It reports
// whether a dispatch path was consumed.
func (e *Engine) tryMemOp(c int64, idx int) bool {
	s := &e.stations[idx]
	if s.isStore {
		if !s.op2.ready || !e.queue && !e.ctx.LoadRegs.OlderStoresWritten(s.binding) {
			return false
		}
		e.ctx.LoadRegs.SetData(s.binding, s.op2.value)
		s.value, s.dispatched, s.executed = s.op2.value, true, true
		e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
		e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
		e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
		if e.queue {
			e.unready(idx)
			return true
		}
		e.retire(s.dest, true, s.addr, s.value)
		e.ctx.LoadRegs.Release(s.binding)
		e.ctx.Observe(obs.KindCommit, c, s.id, s.pc)
		e.release(idx)
		e.inFlight--
		e.retired++
		return true
	}
	// Load: only forwarded loads reach here (memory-bound loads dispatch
	// at bind time).
	v, ok := e.ctx.LoadRegs.Forward(s.binding)
	if !ok {
		return false
	}
	lat := int64(e.ctx.FwdLatency)
	if !e.ctx.Bus.Reserve(c + lat) {
		return false
	}
	e.start(c, idx, c+lat, v)
	return true
}

// TryIssue implements issue.Engine.
func (e *Engine) TryIssue(c int64, pc int, ins isa.Instruction) issue.StallReason {
	if e.trap != nil {
		return issue.StallDrain
	}
	// Outside the queue nothing waits for program order: a NOP completes
	// at once and an explicit trap is raised at once.
	if !e.queue && ins.Op == isa.Nop {
		e.retired++
		id := e.ctx.DecodeID
		e.ctx.Observe(obs.KindIssue, c, id, pc)
		e.ctx.Observe(obs.KindDispatch, c, id, pc)
		e.ctx.Observe(obs.KindExecute, c, id, pc)
		e.ctx.Observe(obs.KindWriteback, c, id, pc)
		e.ctx.Observe(obs.KindCommit, c, id, pc)
		return issue.StallNone
	}
	if !e.queue && ins.Op == isa.Trap {
		e.trap = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
		return issue.StallNone
	}
	idx, r := e.enter(c, pc, ins)
	if r != issue.StallNone || ins.Op != isa.Nop && ins.Op != isa.Trap {
		return r
	}
	// In the queue a NOP or an explicit trap occupies an entry, complete
	// at issue; the trap is raised when the entry reaches the head, like
	// any other instruction-generated trap.
	s := &e.stations[idx]
	if ins.Op == isa.Trap {
		s.fault = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
	}
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
	return issue.StallNone
}

// enter places ins in a station — the queue's tail, or a free station its
// unit may use — reading or tagging its source operands and taking a tag
// for its destination. It returns the station index.
func (e *Engine) enter(c int64, pc int, ins isa.Instruction) (int, issue.StallReason) {
	u := &e.ctx.Uops[pc]
	var free *[]int32
	if e.queue {
		if e.inFlight == len(e.stations) {
			return 0, issue.StallEntry
		}
	} else if free = &e.free[e.classOf(u.Unit)]; len(*free) == 0 {
		return 0, issue.StallEntry
	}
	dst, hasDst := u.Dst, u.HasDst
	if hasDst && (e.queue && e.ni[dst.Flat()] == e.instMask ||
		e.cfg.TagUnitSize > 0 && len(e.tuFree) == 0) {
		return 0, issue.StallDest // no tag can be obtained: issue blocks
	}
	idx := e.tail
	if free != nil {
		n := len(*free) - 1
		idx, *free = int((*free)[n]), (*free)[:n]
	}

	// A free station is all zero.
	s := &e.stations[idx]
	s.used = true
	s.id = e.ctx.DecodeID
	s.seq = e.nextSeq
	s.pc = pc
	s.unit = u.Unit
	s.issueCycle = c
	s.binding = memsys.Invalid
	s.isStore = u.Store
	s.isBranch = u.Branch
	// A NOP or an explicit trap (in the queue) is complete at issue.
	s.executed = ins.Op == isa.Nop || ins.Op == isa.Trap
	s.op1.ready, s.op2.ready = true, true
	if u.NSrc > 0 {
		if s.op1 = e.readOperand(u.Src[0]); !s.op1.ready {
			e.wait(idx, 0, s.op1.tag)
		}
	}
	if u.NSrc > 1 {
		if s.op2 = e.readOperand(u.Src[1]); !s.op2.ready {
			e.wait(idx, 1, s.op2.tag)
		}
	}
	if u.Load || u.Store {
		s.phase = memUnbound
		*e.memAt(e.memLen) = int32(idx)
		e.memLen++
	}
	if hasDst {
		s.hasDest, s.dest = true, dst
		f := dst.Flat()
		switch {
		case e.queue:
			// The tag is the register number appended with its new LI.
			s.tag = int32(f)<<e.liBits | (e.regTag[f]+1)&int32(e.instMask)
			e.ni[f]++
			e.producer[s.tag] = int32(idx)
			if dst.File == isa.FileA && e.ffTag[dst.Idx] == s.tag {
				// The counter wrapped onto a stale future-file entry.
				e.ffValid[dst.Idx] = false
			}
		case e.cfg.TagUnitSize > 0:
			n := len(e.tuFree) - 1
			s.tag, e.tuFree = e.tuFree[n], e.tuFree[:n]
			e.ni[f] = 1
		default:
			s.tag = int32(idx) // the station is the tag
			e.ni[f] = 1
		}
		e.regTag[f] = s.tag
	}
	if s.phase == memNone && !s.isBranch && !s.executed && s.op1.ready && s.op2.ready {
		e.makeReady(idx, aluReady)
	}
	if e.queue {
		e.tail = e.next(e.tail)
	}
	e.nextSeq++
	e.inFlight++
	e.ctx.Observe(obs.KindIssue, c, s.id, s.pc)
	return idx, issue.StallNone
}

// readOperand reads a source register, returning a ready operand or one
// waiting on the latest instance's tag. The pool organisations hold
// every broadcast result in the register file; the queue may read a
// result that has not committed yet through its bypass.
func (e *Engine) readOperand(r isa.Reg) operand {
	f := r.Flat()
	if e.ni[f] == 0 {
		return operand{ready: true, value: e.ctx.State.Reg(r)}
	}
	tag := e.regTag[f]
	if e.queue {
		switch e.cfg.Bypass {
		case BypassFull:
			// Bypass: if the latest instance has executed, its value is
			// read straight out of the queue.
			if s := &e.stations[e.producer[tag]]; s.executed {
				return operand{ready: true, value: s.value}
			}
		case BypassLimited:
			if r.File == isa.FileA && e.ffValid[r.Idx] && e.ffTag[r.Idx] == tag {
				return operand{ready: true, value: e.ff[r.Idx]}
			}
		case BypassNone:
			// No bypass: the operand waits for the result to commit.
		}
	}
	return operand{tag: tag}
}

// TryReadCond implements issue.Engine: the decode-stage branch obtains
// its condition register under the operand-read rules, additionally
// monitoring the result bus (this cycle's broadcast), as §6.2–6.3
// describe for the queue. The pool organisations update the register
// file at broadcast, so the register read alone suffices there.
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	op := e.readOperand(r)
	if op.ready {
		return op.value, true
	}
	if e.onBus.live && e.onBus.tag == op.tag {
		return e.onBus.value, true
	}
	return 0, false
}

// Drained implements issue.Engine.
func (e *Engine) Drained() bool { return e.inFlight == 0 }

// PendingTrap implements issue.Engine.
func (e *Engine) PendingTrap() *exec.Trap { return e.trap }

// Precise implements issue.Engine: only the queue is precise.
func (e *Engine) Precise() bool { return e.queue }

// Flush implements issue.Engine: discard every in-flight instruction.
// For the queue, which updates the register file and memory only at
// commit, the architectural state afterwards is exactly the state at the
// trapping instruction's boundary.
func (e *Engine) Flush() {
	clear(e.stations)
	e.head, e.tail = 0, 0
	e.ni = [isa.NumRegs]uint8{}
	e.regTag = [isa.NumRegs]int32{}
	e.ffValid = [isa.NumA]bool{}
	for i := range e.waiting {
		e.waiting[i] = emptyList
	}
	e.ready = [3]list{emptyList, emptyList, emptyList}
	if !e.queue {
		for u := range e.free {
			e.free[u] = e.free[u][:0]
		}
		for i := len(e.stations) - 1; i >= 0; i-- {
			u := e.class(i)
			e.free[u] = append(e.free[u], int32(i))
		}
	}
	e.tuFree = e.tuFree[:0]
	for t := e.cfg.TagUnitSize - 1; t >= 0; t-- {
		e.tuFree = append(e.tuFree, int32(t))
	}
	e.memHead, e.memLen = 0, 0
	clear(e.ring)
	e.onBus = busEvent{}
	e.outcomes = e.outcomes[:0]
	e.inFlight = 0
	e.trap = nil
	e.ctx.Bus.Clear()
	e.ctx.LoadRegs.Reset()
}

// InFlight implements issue.Engine.
func (e *Engine) InFlight() int { return e.inFlight }

// Retired implements issue.Engine.
func (e *Engine) Retired() int64 { return e.retired }

// HeadPC returns the program counter of the oldest uncommitted
// instruction in the queue — the precise restart point for an external
// interrupt (each entry carries its Program Counter field for exactly
// this, §5).
func (e *Engine) HeadPC() (int, bool) {
	if !e.queue || e.inFlight == 0 {
		return 0, false
	}
	return e.stations[e.head].pc, true
}
