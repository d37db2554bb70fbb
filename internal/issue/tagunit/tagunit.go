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
// waits for (the producer's sequence number, or for the queue the
// register number appended with the awaited LI instance).
type operand struct {
	ready bool
	tag   int64
	value int64
}

type memPhase uint8

const (
	memNone    memPhase = iota // not a memory operation
	memUnbound                 // effective address not yet computed
	memBound                   // address bound to a load register
)

type station struct {
	used       bool
	dispatched bool  // in a functional unit (or a store that has executed)
	executed   bool  // queue: the result is on hand, awaiting commit
	id         int64 // dynamic-instruction id (observability)
	seq        int64
	pc         int
	ins        isa.Instruction
	issueCycle int64
	// readyAt is the cycle in which the last waiting operand was gated
	// in from a bus; a station may dispatch only in a later cycle (gate-in
	// and compare take a stage, so a value caught off the bus is usable
	// by the dispatch logic the next cycle).
	readyAt int64

	op1, op2 operand

	hasDest bool
	dest    isa.Reg
	tag     int64 // the destination's tag
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

// flight is an operation in a functional unit: its result broadcasts on
// the given cycle carrying the producer's tag. station is the index of
// the station held until then, or -1 if it was released at dispatch;
// seq identifies the occupant, so a result whose entry was squashed
// meanwhile is discarded.
type flight struct {
	cycle   int64
	station int
	seq     int64
	id      int64 // dynamic-instruction id (observability)
	pc      int
	tag     int64
	dest    isa.Reg
	value   int64
	binding memsys.Binding
}

// busEvent is one result-bus broadcast of the current cycle.
type busEvent struct {
	tag   int64
	value int64
}

// Engine is the reservation-station issue engine.
type Engine struct {
	cfg   Config
	ctx   *issue.Context
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
	// its low byte).
	ni       [isa.NumRegs]uint8
	regTag   [isa.NumRegs]int64
	instMask uint8 // 2^n − 1 for the queue's n-bit counters

	outstandingTags int

	// Future file for the A registers (BypassLimited): the last value
	// broadcast for each, with its tag.
	ff      [isa.NumA]int64
	ffTag   [isa.NumA]int64
	ffValid [isa.NumA]bool

	memQueue []int // station indices of unbound memory ops, program order
	memHead  int   // first live element of memQueue (popped by index, not reslice)
	flights  []flight
	seqBuf   []int // scratch for programOrder (avoids per-cycle allocation)
	// cycleEvents lists this cycle's result-bus broadcasts, for the
	// decode-stage branch that is "monitoring the bus".
	cycleEvents []busEvent

	nextSeq  int64
	inFlight int
	retired  int64
	trap     *exec.Trap

	outcomes, outBuf []issue.BranchOutcome
	// Architectural branch counters (committed branches only).
	comBranches, comTaken, comMispredicts int64
}

// New returns an engine with the given organisation.
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
		e.instMask = uint8(1<<e.cfg.CounterBits - 1)
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
	return e
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

// BeginCycle broadcasts the results scheduled for this cycle, then the
// queue commits from its head.
func (e *Engine) BeginCycle(c int64) {
	e.cycleEvents = e.cycleEvents[:0]
	n := 0
	for i := range e.flights {
		if fl := &e.flights[i]; fl.cycle == c {
			e.broadcast(c, fl)
		} else {
			if n != i {
				e.flights[n] = *fl
			}
			n++
		}
	}
	e.flights = e.flights[:n]
	if e.queue {
		e.commit(c)
	}
}

// broadcast puts one result on the result bus: waiting operands gate in
// matching tags, and a load's value becomes forwardable to younger
// chained loads as its load-register claim ends. The pool organisations
// then retire the instruction — the register file takes the value if the
// tag is still the latest for its register, and a station held as the
// tag is freed — while the queue keeps the result for commit.
func (e *Engine) broadcast(c int64, fl *flight) {
	var s *station
	if fl.station >= 0 {
		s = &e.stations[fl.station]
		if !s.used || s.seq != fl.seq {
			return // squashed while in flight; the bus cycle stays consumed
		}
	}
	e.ctx.Observe(obs.KindWriteback, c, fl.id, fl.pc)
	e.deliver(c, fl.tag, fl.value)
	e.cycleEvents = append(e.cycleEvents, busEvent{fl.tag, fl.value})
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
	e.outstandingTags--
	if s != nil {
		*s = station{}
	}
	e.ctx.Observe(obs.KindCommit, c, fl.id, fl.pc)
	e.inFlight--
	e.retired++
}

// deliver gates a value into every waiting operand with a matching tag,
// and resolves the branches waiting on it. The queue is visited from
// head to tail, so a mispredicted branch squashes only entries not yet
// visited.
func (e *Engine) deliver(c int64, tag, v int64) {
	first, n := 0, len(e.stations)
	if e.queue {
		first, n = e.head, e.inFlight
	}
	for i := 0; i < n; i++ {
		idx := first + i
		if idx >= len(e.stations) {
			idx -= len(e.stations)
		}
		s := &e.stations[idx]
		if !s.used {
			continue
		}
		if !s.op1.ready && s.op1.tag == tag {
			s.op1.ready, s.op1.value = true, v
			s.readyAt = c
		}
		if !s.op2.ready && s.op2.tag == tag {
			s.op2.ready, s.op2.value = true, v
			s.readyAt = c
		}
		if s.isBranch && !s.resolved && s.op1.ready {
			e.resolveBranch(c, idx)
		}
	}
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
// first, then oldest-first (§5's priority rule).
func (e *Engine) Dispatch(c int64) {
	e.advanceMemFrontier(c)

	budget := e.paths
	order := e.programOrder()
	for _, idx := range order {
		if budget == 0 {
			return
		}
		s := &e.stations[idx]
		if !s.used || s.phase != memBound || s.dispatched || s.fault != nil || s.issueCycle >= c || s.readyAt >= c {
			continue
		}
		if e.tryMemOp(c, idx) {
			budget--
		}
	}
	for _, idx := range order {
		if budget == 0 {
			return
		}
		s := &e.stations[idx]
		if !s.used || s.phase != memNone || s.dispatched || s.executed || s.isBranch ||
			s.issueCycle >= c || s.readyAt >= c || !s.op1.ready || !s.op2.ready {
			continue
		}
		lat := int64(e.ctx.Lat.Of(s.ins.Op))
		if !e.ctx.Bus.Reserve(c + lat) {
			continue
		}
		e.start(c, idx, c+lat, exec.ALU(s.ins, s.op1.value, s.op2.value))
		budget--
	}
}

// start sends station idx's operation into a functional unit, to
// broadcast value at cycle done. With a separate Tag Unit the station is
// released now (the tag travels with the operation); otherwise it is
// held until the broadcast.
func (e *Engine) start(c int64, idx int, done, value int64) {
	s := &e.stations[idx]
	held := idx
	if e.cfg.TagUnitSize > 0 {
		held = -1
	}
	s.value, s.dispatched = value, true
	e.flights = append(e.flights, flight{done, held, s.seq, s.id, s.pc, s.tag, s.dest, value, s.binding})
	e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	if held < 0 {
		*s = station{}
	}
}

// programOrder returns the used station indices oldest first. The queue
// is in program order from head to tail already; the pool is sorted by
// sequence number. The returned slice is valid until the next call.
func (e *Engine) programOrder() []int {
	idxs := e.seqBuf[:0]
	if e.queue {
		for i, p := 0, e.head; i < e.inFlight; i, p = i+1, e.next(p) {
			idxs = append(idxs, p)
		}
		e.seqBuf = idxs
		return idxs
	}
	for i := range e.stations {
		if e.stations[i].used {
			idxs = append(idxs, i)
		}
	}
	// Insertion sort by seq: the stations are few (≤ ~50).
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && e.stations[idxs[j]].seq < e.stations[idxs[j-1]].seq; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	e.seqBuf = idxs
	return idxs
}

// popMem drops the head of the memory queue by advancing the head
// index; when the queue drains, the backing array is reused from the
// front so the steady state allocates nothing.
func (e *Engine) popMem() {
	e.memHead++
	if e.memHead == len(e.memQueue) {
		e.memQueue, e.memHead = e.memQueue[:0], 0
	}
}

// advanceMemFrontier computes the effective address of the oldest unbound
// memory operation whose base register is available, binding it to a load
// register. At most one address per cycle; younger memory operations
// cannot bind before older ones.
func (e *Engine) advanceMemFrontier(c int64) {
	if e.trap != nil || e.memHead == len(e.memQueue) {
		return
	}
	idx := e.memQueue[e.memHead]
	s := &e.stations[idx]
	if !s.used || s.phase != memUnbound {
		e.popMem() // squashed; retry next cycle
		return
	}
	if s.issueCycle >= c || s.readyAt >= c || !s.op1.ready {
		return
	}
	addr := exec.EffAddr(s.ins, s.op1.value)
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
	if toMem {
		v, f := e.ctx.State.Mem.Read(addr)
		if f != nil {
			panic("tagunit: unexpected fault after bind-time check: " + f.Error())
		}
		e.start(c, idx, c+lat, v)
	}
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
		if !e.queue {
			e.retire(s.dest, true, s.addr, s.value)
			e.ctx.LoadRegs.Release(s.binding)
			e.ctx.Observe(obs.KindCommit, c, s.id, s.pc)
			*s = station{}
			e.inFlight--
			e.retired++
		}
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
	s.executed = true
	if ins.Op == isa.Trap {
		s.fault = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
	}
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
	return issue.StallNone
}

// enter places ins in a station — the queue's tail, or the first free
// station its unit may use — reading or tagging its source operands and
// taking a tag for its destination. It returns the station index.
func (e *Engine) enter(c int64, pc int, ins isa.Instruction) (int, issue.StallReason) {
	info := ins.Op.Info()
	idx := -1
	if !e.queue {
		for i := range e.stations {
			if !e.stations[i].used && (e.unitOf == nil || e.unitOf[i] == info.Unit) {
				idx = i
				break
			}
		}
	} else if e.inFlight < len(e.stations) {
		idx = e.tail
	}
	if idx < 0 {
		return 0, issue.StallEntry
	}
	dst, hasDst := ins.Dst()
	if hasDst && (e.queue && e.ni[dst.Flat()] == e.instMask ||
		e.cfg.TagUnitSize > 0 && e.outstandingTags == e.cfg.TagUnitSize) {
		return 0, issue.StallDest // no tag can be obtained: issue blocks
	}

	s := &e.stations[idx]
	*s = station{
		used:       true,
		id:         e.ctx.DecodeID,
		seq:        e.nextSeq,
		pc:         pc,
		ins:        ins,
		issueCycle: c,
		binding:    memsys.Invalid,
		op1:        operand{ready: true},
		op2:        operand{ready: true},
		isStore:    info.Store,
	}
	var srcBuf [2]isa.Reg
	srcs := ins.Srcs(srcBuf[:0])
	if len(srcs) > 0 {
		s.op1 = e.readOperand(srcs[0])
	}
	if len(srcs) > 1 {
		s.op2 = e.readOperand(srcs[1])
	}
	if info.Load || info.Store {
		s.phase = memUnbound
		e.memQueue = append(e.memQueue, idx)
	}
	if hasDst {
		s.hasDest, s.dest = true, dst
		f := dst.Flat()
		if e.queue {
			// The tag is the register number appended with its new LI.
			s.tag = int64(f)<<8 | int64((uint8(e.regTag[f])+1)&e.instMask)
			e.ni[f]++
			if dst.File == isa.FileA && e.ffTag[dst.Idx] == s.tag {
				// The counter wrapped onto a stale future-file entry.
				e.ffValid[dst.Idx] = false
			}
		} else {
			s.tag = s.seq
			e.ni[f] = 1
			e.outstandingTags++
		}
		e.regTag[f] = s.tag
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
			// Associative bypass: if the latest instance has executed,
			// its value is read straight out of the queue.
			for i := range e.stations {
				if s := &e.stations[i]; s.used && s.hasDest && s.tag == tag {
					if s.executed {
						return operand{ready: true, value: s.value}
					}
					break
				}
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
// monitoring the result bus (this cycle's broadcasts), as §6.2–6.3
// describe for the queue. The pool organisations update the register
// file at broadcast, so the register read alone suffices there.
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	op := e.readOperand(r)
	if op.ready {
		return op.value, true
	}
	for _, ev := range e.cycleEvents {
		if ev.tag == op.tag {
			return ev.value, true
		}
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
	e.regTag = [isa.NumRegs]int64{}
	e.ffValid = [isa.NumA]bool{}
	e.outstandingTags = 0
	e.memQueue, e.memHead = e.memQueue[:0], 0
	e.flights = e.flights[:0]
	e.cycleEvents = e.cycleEvents[:0]
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
