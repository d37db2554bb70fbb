package dfa

import (
	"math/bits"

	"ruu/internal/isa"
)

// The reaching-definitions analysis works at instruction granularity
// over a definition ID space with two halves: IDs [0, n) are the real
// definitions (instruction i defining its Dst register has ID i), and
// IDs [n, n+k) are synthetic entry definitions, one for each of the k
// registers the program reads or writes, modelling the register's value
// at program entry. An entry definition reaching a read means the read
// can observe a value no instruction of the program wrote — the
// uninitialized-read lint condition. A register the program never
// names needs no entry definition: nothing reads it or kills it.

// bitset is a fixed-capacity bit vector over definition IDs.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// or folds o into b and reports whether b changed.
func (b bitset) or(o bitset) bool {
	changed := false
	for w := range b {
		if n := b[w] | o[w]; n != b[w] {
			b[w] = n
			changed = true
		}
	}
	return changed
}

// andNot clears every bit of o from b.
func (b bitset) andNot(o bitset) {
	for w := range b {
		b[w] &^= o[w]
	}
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) equal(o bitset) bool {
	for w := range b {
		if b[w] != o[w] {
			return false
		}
	}
	return true
}

// clear zeroes the set.
func (b bitset) clear() {
	for w := range b {
		b[w] = 0
	}
}

// reachingDefs computes IN[i] (the definitions reaching instruction i)
// and OUT[i] for every instruction by iterating the classic forward
// dataflow equations to a fixpoint:
//
//	IN[i]  = ∪ OUT[p] over CFG predecessors p   (entry defs at i=0)
//	OUT[i] = (IN[i] \ kill[i]) ∪ gen[i]
func (a *Analysis) reachingDefs() {
	n := len(a.Prog.Instructions)
	a.defReg = make([]int, n)
	for r := range a.regSlot {
		a.regSlot[r] = -1
	}
	k := 0
	name := func(r isa.Reg) {
		if a.regSlot[r.Flat()] < 0 {
			a.regSlot[r.Flat()] = int16(k)
			k++
		}
	}
	var srcs [2]isa.Reg
	for i, ins := range a.Prog.Instructions {
		a.defReg[i] = -1
		if d, ok := ins.Dst(); ok {
			a.defReg[i] = d.Flat()
			name(d)
		}
		for _, r := range ins.Srcs(srcs[:0]) {
			name(r)
		}
	}
	nd := n + k

	// Every bitset is cut from one block: IN and OUT per instruction,
	// defMask per named register, then entry, scratch and exitOut.
	words := (nd + 63) / 64
	block := make([]uint64, words*(2*n+k+3))
	next := func() bitset {
		b := bitset(block[:words:words])
		block = block[words:]
		return b
	}
	// defMask[s] = every definition ID (real or entry) of the register
	// in slot s.
	a.defMask = make([]bitset, k)
	for s := range a.defMask {
		a.defMask[s] = next()
		a.defMask[s].set(n + s)
	}
	for i, r := range a.defReg {
		if r >= 0 {
			a.mask(r).set(i)
		}
	}

	a.in = make([]bitset, n)
	out := make([]bitset, n)
	for i := 0; i < n; i++ {
		a.in[i] = next()
		out[i] = next()
	}
	entry := next()
	for s := 0; s < k; s++ {
		entry.set(n + s)
	}

	scratch := next()
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !a.Reachable[i] {
				continue
			}
			scratch.clear()
			if i == 0 {
				scratch.or(entry)
			}
			for _, p := range a.Preds[i] {
				scratch.or(out[p])
			}
			a.in[i].copyFrom(scratch)
			if r := a.defReg[i]; r >= 0 {
				scratch.andNot(a.mask(r))
				scratch.set(i)
			}
			if !scratch.equal(out[i]) {
				out[i].copyFrom(scratch)
				changed = true
			}
		}
	}

	// exitOut is the union of OUT over every exit (an instruction with
	// no successors: HALT, or falling off the program end). A definition
	// in exitOut is observable in the final architectural state.
	a.exitOut = next()
	for i := 0; i < n; i++ {
		if a.Reachable[i] && len(a.Succs[i]) == 0 {
			a.exitOut.or(out[i])
		}
	}
}

// mask returns every definition ID of flat register r, which the
// program must read or write.
func (a *Analysis) mask(r int) bitset { return a.defMask[a.regSlot[r]] }

// buildChains derives the def-use chains: for every reachable read of a
// register, the reaching real definitions gain the reader in UsesOf,
// and a reaching entry definition records an uninitialized read.
func (a *Analysis) buildChains() {
	n := len(a.Prog.Instructions)
	defs := 0
	for i, r := range a.defReg {
		if r >= 0 && a.Reachable[i] {
			defs++
		}
	}
	a.UsesOf = make(map[int][]int, defs)
	var srcs [2]isa.Reg
	for i, ins := range a.Prog.Instructions {
		if !a.Reachable[i] {
			continue
		}
		if a.defReg[i] >= 0 {
			if _, ok := a.UsesOf[i]; !ok {
				a.UsesOf[i] = nil
			}
		}
		for _, r := range ins.Srcs(srcs[:0]) {
			f := r.Flat()
			mask := a.mask(f)
			for w := range mask {
				word := a.in[i][w] & mask[w]
				for word != 0 {
					d := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					if d < n {
						if us := a.UsesOf[d]; len(us) == 0 || us[len(us)-1] != i {
							a.UsesOf[d] = append(us, i)
						}
					} else if rs := a.uninitReads[i]; len(rs) == 0 || rs[len(rs)-1] != r {
						a.uninitReads[i] = append(rs, r)
					}
				}
			}
		}
	}
}
