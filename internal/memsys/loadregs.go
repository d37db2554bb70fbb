package memsys

import (
	"fmt"

	"ruu/internal/isa"
)

// DefaultLoadRegs is the number of load registers the paper simulated
// ("we used 6 load registers though 4 were sufficient for most cases").
const DefaultLoadRegs = isa.PaperLoadRegs

// Binding identifies one memory operation's claim on a load register: the
// register slot and the operation's position in that register's chain of
// outstanding operations.
type Binding struct {
	Slot int
	Pos  int
}

// Invalid is the zero Binding, which refers to no load register.
var Invalid = Binding{Slot: -1}

// Valid reports whether the binding refers to a load register.
func (b Binding) Valid() bool { return b.Slot >= 0 }

type chainEntry struct {
	isStore   bool
	data      int64
	dataValid bool
	released  bool
	squashed  bool
}

type loadReg struct {
	addr    int64
	chain   []chainEntry
	pending int // entries neither released nor squashed
}

// LoadRegs is the pool of load registers of §3.2.1.2: a small associative
// file holding the addresses of currently active memory locations, with
// per-register tags that allow multiple outstanding operations to the
// same address.
//
// Each register keeps its outstanding operations in bind order (engines
// bind memory operations in program order, as the paper requires:
// "if the address of a load/store operation is unavailable, subsequent
// load/store instructions are not allowed to proceed"). A load bound to
// an already-active register is never submitted to memory: it forwards
// the value of the nearest earlier operation on the chain once that value
// is available. This yields store-to-load forwarding and same-address
// ordering with only a small associative search, as the paper budgets.
type LoadRegs struct {
	regs []loadReg
}

// NewLoadRegs returns a pool of n load registers (DefaultLoadRegs if n<=0).
func NewLoadRegs(n int) *LoadRegs {
	if n <= 0 {
		n = DefaultLoadRegs
	}
	return &LoadRegs{regs: make([]loadReg, n)}
}

// Size returns the number of load registers.
func (lr *LoadRegs) Size() int { return len(lr.regs) }

// Reset returns every load register to the free state.
func (lr *LoadRegs) Reset() {
	for i := range lr.regs {
		lr.regs[i] = loadReg{}
	}
}

// InUse returns the number of busy load registers.
func (lr *LoadRegs) InUse() int {
	n := 0
	for i := range lr.regs {
		if lr.regs[i].pending > 0 {
			n++
		}
	}
	return n
}

// Pending reports whether any operation is outstanding on the given
// address (i.e. whether a Bind to it would chain instead of accessing
// memory).
func (lr *LoadRegs) Pending(addr int64) bool {
	for i := range lr.regs {
		if lr.regs[i].pending > 0 && lr.regs[i].addr == addr {
			return true
		}
	}
	return false
}

// CanBind reports whether a Bind to addr would succeed: either an
// operation is already outstanding on the address (the bind chains) or a
// free register exists.
func (lr *LoadRegs) CanBind(addr int64) bool {
	for i := range lr.regs {
		if lr.regs[i].pending == 0 || lr.regs[i].addr == addr {
			return true
		}
	}
	return false
}

// Bind registers a memory operation whose effective address has just been
// computed. It returns the binding, whether the operation must be
// submitted to memory (true only for a load that found no pending
// operation on the address; stores never read memory), and ok=false if no
// load register could be obtained, in which case the operation must retry
// (the paper blocks issue in this case).
func (lr *LoadRegs) Bind(addr int64, isStore bool) (b Binding, toMemory bool, ok bool) {
	free := -1
	for i := range lr.regs {
		r := &lr.regs[i]
		if r.pending > 0 && r.addr == addr {
			r.chain = append(r.chain, chainEntry{isStore: isStore})
			r.pending++
			return Binding{i, len(r.chain) - 1}, false, true
		}
		if r.pending == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 {
		return Invalid, false, false
	}
	r := &lr.regs[free]
	r.addr = addr
	r.chain = append(r.chain[:0], chainEntry{isStore: isStore}) // reuse freed capacity
	r.pending = 1
	return Binding{free, 0}, !isStore, true
}

func (lr *LoadRegs) entry(b Binding) *chainEntry {
	if !b.Valid() {
		return nil
	}
	r := &lr.regs[b.Slot]
	if b.Pos >= len(r.chain) {
		panic(fmt.Sprintf("memsys: binding %+v beyond chain length %d", b, len(r.chain)))
	}
	return &r.chain[b.Pos]
}

// SetData supplies the value produced by the bound operation: a store's
// data operand (available once the store has "executed"), or a load's
// value returned from memory. Later same-address operations forward it.
func (lr *LoadRegs) SetData(b Binding, v int64) {
	if e := lr.entry(b); e != nil {
		e.data = v
		e.dataValid = true
	}
}

// Forward returns the value a bound load should take from its register's
// chain: the data of the nearest earlier non-squashed operation. ok is
// false while that value is not yet available. Operations that were told
// to go to memory at Bind time (no earlier operation) never forward.
func (lr *LoadRegs) Forward(b Binding) (v int64, ok bool) {
	if !b.Valid() {
		return 0, false
	}
	r := &lr.regs[b.Slot]
	for i := b.Pos - 1; i >= 0; i-- {
		e := &r.chain[i]
		if e.squashed {
			continue
		}
		if e.dataValid {
			return e.data, true
		}
		return 0, false // producer identified but value still in flight
	}
	return 0, false
}

// MustForward reports whether the binding has an earlier non-squashed
// operation on its chain, i.e. whether the bound load's value will come
// from forwarding rather than from memory.
func (lr *LoadRegs) MustForward(b Binding) bool {
	if !b.Valid() {
		return false
	}
	r := &lr.regs[b.Slot]
	for i := b.Pos - 1; i >= 0; i-- {
		if !r.chain[i].squashed {
			return true
		}
	}
	return false
}

// OlderStoresWritten reports whether every store bound to the register
// before b has written memory (or been squashed). A store that executes
// at completion must wait for it: the chain holds same-address
// operations in program order, so a younger store whose data is ready
// would otherwise write memory first and be overwritten by the older one.
func (lr *LoadRegs) OlderStoresWritten(b Binding) bool {
	if !b.Valid() {
		return true
	}
	r := &lr.regs[b.Slot]
	for i := 0; i < b.Pos; i++ {
		if e := &r.chain[i]; e.isStore && !e.released && !e.squashed {
			return false
		}
	}
	return true
}

// Release ends a memory operation's claim (load: value written back;
// store: memory updated). The register becomes free when no pending
// operations remain bound to it. The released operation's buffered data
// stays available to later chained operations until then.
func (lr *LoadRegs) Release(b Binding) {
	lr.finish(b, false)
}

// Squash nullifies a speculatively bound operation: its buffered data is
// never forwarded and its claim is dropped.
func (lr *LoadRegs) Squash(b Binding) {
	lr.finish(b, true)
}

func (lr *LoadRegs) finish(b Binding, squash bool) {
	e := lr.entry(b)
	if e == nil {
		return
	}
	if e.released || e.squashed {
		panic(fmt.Sprintf("memsys: double release/squash of binding %+v", b))
	}
	if squash {
		e.squashed = true
		e.dataValid = false
	} else {
		e.released = true
	}
	r := &lr.regs[b.Slot]
	r.pending--
	if r.pending == 0 {
		// Free the register but keep the chain's backing array for the
		// next Bind.
		r.addr = 0
		r.chain = r.chain[:0]
	}
}
