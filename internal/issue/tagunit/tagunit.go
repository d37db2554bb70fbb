// Package tagunit implements the paper's reservation-station engines,
// §3.1–§3.2.3. They are all variations on Tomasulo's algorithm that
// differ in two settings — how the reservation stations are organised
// and where the tags live — plus the number of dispatch paths:
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
//     functional unit — the organisation the paper deliberately trades
//     for the ability to extend it into the RUU (internal/core).
//
// All of them update the register file out of program order (when
// results broadcast), so none provides precise interrupts.
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
type Config struct {
	// Stations is the reservation-station organisation (the zero value
	// is PerUnit(DefaultPerUnit)).
	Stations Stations
	// TagUnitSize caps the number of in-flight destination registers
	// (active tags) held in a separate Tag Unit. Zero means no Tag Unit:
	// each station is its own tag and is held until its result is
	// broadcast.
	TagUnitSize int
	// Paths is the number of dispatch paths (default 1).
	Paths int
}

// Stations is an organisation of the reservation stations: distributed
// per functional unit, or merged into one shared pool.
type Stations struct {
	n      int
	pooled bool
}

// PerUnit distributes n stations to each functional-unit class
// (DefaultPerUnit if n <= 0).
func PerUnit(n int) Stations { return Stations{n: n} }

// Pool merges n stations into one pool shared by every unit (§3.2.2),
// so no unit starves while another idles (DefaultPoolSize if n <= 0).
func Pool(n int) Stations { return Stations{n: n, pooled: true} }

const (
	// DefaultPerUnit is the distributed station count per functional
	// unit (the IBM 360/91 floating-point unit had two to three
	// stations per unit).
	DefaultPerUnit = 3
	// DefaultPoolSize is the pooled station count.
	DefaultPoolSize = 10
)

type operand struct {
	ready bool
	tag   int64 // producer's tag when !ready
	value int64
}

type memPhase uint8

const (
	memUnbound memPhase = iota // effective address not yet computed
	memBound                   // address bound to a load register
)

type station struct {
	used       bool
	dispatched bool  // in a functional unit; the station is held as its tag
	id         int64 // dynamic-instruction id (observability)
	seq        int64
	pc         int
	ins        isa.Instruction
	issueCycle int64
	// readyAt is the cycle in which the last waiting operand was gated
	// in from the result bus; a station may dispatch only in a later
	// cycle (gate-in and compare take a stage, so a value caught off the
	// bus is usable by the dispatch logic the next cycle).
	readyAt int64

	op1, op2 operand

	hasDest bool
	dest    isa.Reg
	tagID   int64

	isMem      bool
	isStore    bool
	phase      memPhase
	addr       int64
	binding    memsys.Binding
	memChecked bool // trap check performed (exactly once per operation)
}

// flight is an operation in a functional unit: its result broadcasts on
// the given cycle carrying the producer's tag. station is the index of
// the station held as the tag until then, or -1 if it was released at
// dispatch.
type flight struct {
	cycle   int64
	id      int64 // dynamic-instruction id (observability)
	pc      int
	station int
	tagID   int64
	hasDest bool
	dest    isa.Reg
	value   int64
	binding memsys.Binding
}

// Engine is the reservation-station issue engine.
type Engine struct {
	cfg   Config
	ctx   *issue.Context
	paths int

	stations []station
	// unitOf[i] is the unit class owning station i in distributed mode
	// (UnitNone in pooled mode: any station serves any unit).
	unitOf []isa.Unit

	regBusy [isa.NumRegs]bool
	regTag  [isa.NumRegs]int64

	outstandingTags int

	memQueue []int // station indices of unbound memory ops, program order
	memHead  int   // first live element of memQueue (popped by index, not reslice)
	flights  []flight
	seqBuf   []int // scratch for bySeq (avoids per-cycle allocation)

	nextSeq  int64
	inFlight int
	retired  int64
	trap     *exec.Trap
}

// New returns an engine with the given organisation.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, paths: max(cfg.Paths, 1)}
	if st := cfg.Stations; st.pooled {
		n := st.n
		if n <= 0 {
			n = DefaultPoolSize
		}
		e.stations = make([]station, n)
		e.unitOf = make([]isa.Unit, n) // all UnitNone: shared
		return e
	}
	per := cfg.Stations.n
	if per <= 0 {
		per = DefaultPerUnit
	}
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		for i := 0; i < per; i++ {
			e.stations = append(e.stations, station{})
			e.unitOf = append(e.unitOf, u)
		}
	}
	return e
}

// Name implements issue.Engine.
func (e *Engine) Name() string {
	switch {
	case e.cfg.TagUnitSize > 0 && e.cfg.Stations.pooled:
		return "tu-pool"
	case e.cfg.TagUnitSize > 0:
		return "tu-dist"
	case !e.cfg.Stations.pooled:
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
	e.Flush()
	ctx.Bus.Reset()
}

// BeginCycle broadcasts the results scheduled for this cycle: waiting
// station operands gate in matching tags; the Tag Unit (or the tagged
// station itself) forwards the value to the register file if the tag is
// still the latest for its register, and a station held as the tag is
// freed for reuse.
func (e *Engine) BeginCycle(c int64) {
	out := e.flights[:0]
	for _, fl := range e.flights {
		if fl.cycle != c {
			out = append(out, fl)
			continue
		}
		for i := range e.stations {
			s := &e.stations[i]
			if !s.used {
				continue
			}
			if !s.op1.ready && s.op1.tag == fl.tagID {
				s.op1.ready, s.op1.value = true, fl.value
				s.readyAt = fl.cycle
			}
			if !s.op2.ready && s.op2.tag == fl.tagID {
				s.op2.ready, s.op2.value = true, fl.value
				s.readyAt = fl.cycle
			}
		}
		if fl.hasDest {
			// A result whose tag is no longer the latest for its
			// register must not overwrite it: a newer instance owns it
			// (the paper permits the update but never requires it;
			// suppressing it keeps state correct).
			f := fl.dest.Flat()
			if e.regBusy[f] && e.regTag[f] == fl.tagID {
				e.ctx.State.SetReg(fl.dest, fl.value)
				e.regBusy[f] = false
			}
			e.outstandingTags--
		}
		if fl.binding.Valid() {
			e.ctx.LoadRegs.SetData(fl.binding, fl.value)
			e.ctx.LoadRegs.Release(fl.binding)
		}
		if fl.station >= 0 {
			e.stations[fl.station] = station{}
		}
		e.ctx.Observe(obs.KindWriteback, c, fl.id, fl.pc)
		e.ctx.Observe(obs.KindCommit, c, fl.id, fl.pc)
		e.inFlight--
		e.retired++
	}
	e.flights = out
}

// Dispatch implements issue.Engine: first the memory-address frontier
// advances (the memory unit computes one effective address per cycle, in
// program order among memory operations — §3.2.1.2), then up to Paths
// ready instructions dispatch to the functional units, loads and stores
// first (the priority rule shared with §5), then oldest-first.
func (e *Engine) Dispatch(c int64) {
	e.advanceMemFrontier(c)

	budget := e.paths
	order := e.bySeq()
	for _, idx := range order {
		if budget == 0 {
			return
		}
		s := &e.stations[idx]
		if !s.used || !s.isMem || s.phase != memBound || s.dispatched || s.issueCycle >= c || s.readyAt >= c {
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
		if !s.used || s.isMem || s.dispatched || s.issueCycle >= c || s.readyAt >= c || !s.op1.ready || !s.op2.ready {
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
// held as the tag until the broadcast.
func (e *Engine) start(c int64, idx int, done, value int64) {
	s := &e.stations[idx]
	held := -1
	if e.cfg.TagUnitSize == 0 {
		held = idx
	}
	e.flights = append(e.flights, flight{done, s.id, s.pc, held, s.tagID, s.hasDest, s.dest, value, s.binding})
	e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	if held < 0 {
		e.stations[idx] = station{}
	} else {
		s.dispatched = true
	}
}

// bySeq returns used station indices in program (seq) order. The
// returned slice is valid until the next call.
func (e *Engine) bySeq() []int {
	idxs := e.seqBuf[:0]
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
	if s.issueCycle >= c || s.readyAt >= c || !s.op1.ready {
		return
	}
	addr := exec.EffAddr(s.ins, s.op1.value)
	if !s.memChecked {
		s.memChecked = true
		if t := issue.MemTrap(e.ctx, s.pc, addr); t != nil {
			// Imprecise machine: the trap is raised as soon as it is
			// detected, with younger and older work still in flight.
			e.trap = t
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
	// Pop by head index; when the queue drains, reuse the backing
	// array from the front so the steady state allocates nothing.
	e.memHead++
	if e.memHead == len(e.memQueue) {
		e.memQueue, e.memHead = e.memQueue[:0], 0
	}
	if toMem {
		v, f := e.ctx.State.Mem.Read(addr)
		if f != nil {
			panic("tagunit: unexpected fault after bind-time check: " + f.Error())
		}
		e.start(c, idx, c+lat, v)
	}
}

// tryMemOp attempts to complete a bound memory operation. Stores execute
// — write memory — once their data operand is ready and every older
// store to the same address has written; forwarded loads take their value
// off the load-register chain and schedule a result broadcast. It
// reports whether a dispatch path was consumed.
func (e *Engine) tryMemOp(c int64, idx int) bool {
	s := &e.stations[idx]
	if s.isStore {
		if !s.op2.ready || !e.ctx.LoadRegs.OlderStoresWritten(s.binding) {
			return false
		}
		// Imprecise: memory is updated at execution time.
		if f := e.ctx.State.Mem.Write(s.addr, s.op2.value); f != nil {
			panic("tagunit: unexpected fault after bind-time check: " + f.Error())
		}
		e.ctx.LoadRegs.SetData(s.binding, s.op2.value)
		e.ctx.LoadRegs.Release(s.binding)
		e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
		e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
		e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
		e.ctx.Observe(obs.KindCommit, c, s.id, s.pc)
		e.stations[idx] = station{}
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
	if ins.Op == isa.Nop {
		e.retired++
		id := e.ctx.DecodeID
		e.ctx.Observe(obs.KindIssue, c, id, pc)
		e.ctx.Observe(obs.KindDispatch, c, id, pc)
		e.ctx.Observe(obs.KindExecute, c, id, pc)
		e.ctx.Observe(obs.KindWriteback, c, id, pc)
		e.ctx.Observe(obs.KindCommit, c, id, pc)
		return issue.StallNone
	}
	if ins.Op == isa.Trap {
		e.trap = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
		return issue.StallNone
	}
	info := ins.Op.Info()

	idx := -1
	for i := range e.stations {
		if !e.stations[i].used && (e.cfg.Stations.pooled || e.unitOf[i] == info.Unit) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return issue.StallEntry
	}
	dst, hasDst := ins.Dst()
	if hasDst && e.cfg.TagUnitSize > 0 && e.outstandingTags == e.cfg.TagUnitSize {
		return issue.StallDest // no tag can be obtained: issue blocks
	}

	s := station{
		used:       true,
		id:         e.ctx.DecodeID,
		seq:        e.nextSeq,
		pc:         pc,
		ins:        ins,
		issueCycle: c,
		binding:    memsys.Invalid,
		op1:        operand{ready: true},
		op2:        operand{ready: true},
		isMem:      info.Load || info.Store,
		isStore:    info.Store,
	}
	var srcBuf [2]isa.Reg
	srcs := ins.Srcs(srcBuf[:0])
	readOp := func(r isa.Reg) operand {
		f := r.Flat()
		if e.regBusy[f] {
			return operand{ready: false, tag: e.regTag[f]}
		}
		return operand{ready: true, value: e.ctx.State.Reg(r)}
	}
	if len(srcs) > 0 {
		s.op1 = readOp(srcs[0])
	}
	if len(srcs) > 1 {
		s.op2 = readOp(srcs[1])
	}
	if hasDst {
		s.hasDest = true
		s.dest = dst
		s.tagID = e.nextSeq
		f := dst.Flat()
		e.regBusy[f] = true
		e.regTag[f] = s.tagID
		e.outstandingTags++
	}
	e.stations[idx] = s
	e.nextSeq++
	e.inFlight++
	if s.isMem {
		e.memQueue = append(e.memQueue, idx)
	}
	e.ctx.Observe(obs.KindIssue, c, s.id, s.pc)
	return issue.StallNone
}

// TryReadCond implements issue.Engine: readable when the register has no
// pending producer (the register file is updated at broadcast, so no
// extra bypass is needed — this is the imprecise machines' advantage).
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	if e.regBusy[r.Flat()] {
		return 0, false
	}
	return e.ctx.State.Reg(r), true
}

// Drained implements issue.Engine.
func (e *Engine) Drained() bool { return e.inFlight == 0 }

// PendingTrap implements issue.Engine.
func (e *Engine) PendingTrap() *exec.Trap { return e.trap }

// Precise implements issue.Engine: none of these machines is precise.
func (e *Engine) Precise() bool { return false }

// Flush implements issue.Engine.
func (e *Engine) Flush() {
	clear(e.stations)
	e.regBusy = [isa.NumRegs]bool{}
	e.outstandingTags = 0
	e.memQueue, e.memHead = e.memQueue[:0], 0
	e.flights = e.flights[:0]
	e.inFlight = 0
	e.trap = nil
	e.ctx.Bus.Clear()
	e.ctx.LoadRegs.Reset()
}

// InFlight implements issue.Engine.
func (e *Engine) InFlight() int { return e.inFlight }

// Retired implements issue.Engine.
func (e *Engine) Retired() int64 { return e.retired }
