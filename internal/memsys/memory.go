// Package memsys implements the memory side of the model architecture:
// the word-addressed memory image shared by the functional executor and
// the timing engines, and the paper's load-register mechanism for memory
// disambiguation and store-to-load forwarding (§3.2.1.2).
package memsys

import "fmt"

// PageWords is the page size in 64-bit words. A memory image is held
// as pages of this size, shared between copies until one of them writes
// (see Clone), and pages can be unmapped to make any access to them
// raise a page fault, which is how the precise-interrupt experiments
// trigger faults at controlled points.
const PageWords = 1024

// FaultKind classifies memory access failures.
type FaultKind uint8

const (
	// FaultNone means the access succeeded.
	FaultNone FaultKind = iota
	// FaultBadAddress means the address is outside the memory image.
	FaultBadAddress
	// FaultPage means the address falls in an unmapped page.
	FaultPage
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultBadAddress:
		return "bad-address"
	case FaultPage:
		return "page-fault"
	default:
		return "fault?"
	}
}

// Fault describes a failed memory access.
type Fault struct {
	Kind FaultKind
	Addr int64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memsys: %s at address %d", f.Kind, f.Addr)
}

// Memory is a word-addressed (64-bit words) memory image with optional
// unmapped pages. It is held as pages of PageWords words, and a page of
// zeros is not stored. Copies share pages: Clone copies no words, and a
// page is copied on the first Write or Poke to it in any memory that
// shares it. The zero value is unusable; use NewMemory.
type Memory struct {
	size     int
	pages    []slot
	unmapped map[int]bool
}

// slot is one page of a Memory.
type slot struct {
	words *page // nil for a page of zeros
	own   bool  // words is this memory's alone: a write may change it in place
}

type page [PageWords]int64

// DefaultWords is the default memory size: 32Ki words, addressable by the
// 16-bit signed immediates of the ISA.
const DefaultWords = 1 << 15

// NewMemory returns a zeroed memory image of the given size in words.
// It stores no page until one is written.
func NewMemory(words int) *Memory {
	if words <= 0 {
		words = DefaultWords
	}
	return &Memory{size: words, pages: make([]slot, (words+PageWords-1)/PageWords)}
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return m.size }

// Freeze gives up m's ownership of its pages: from now on m's first
// write to a page copies it, as a write to a page shared with a clone
// does, and Clone reads m without writing it. A frozen memory that
// nobody writes can be read and cloned by any number of goroutines.
func (m *Memory) Freeze() {
	for p := range m.pages {
		if m.pages[p].own {
			m.pages[p].own = false
		}
	}
}

// Clone returns a copy of the memory image that shares every page with
// m, in time proportional to the number of pages. Neither memory sees
// the other's later writes: m is frozen first, so a write to a shared
// page by either copies that page. Mapping state is copied.
func (m *Memory) Clone() *Memory {
	m.Freeze()
	c := &Memory{size: m.size, pages: make([]slot, len(m.pages))}
	copy(c.pages, m.pages)
	if len(m.unmapped) > 0 {
		c.unmapped = make(map[int]bool, len(m.unmapped))
		for p := range m.unmapped {
			c.unmapped[p] = true
		}
	}
	return c
}

// Equal reports whether two memory images hold identical words. Mapping
// state is ignored: it is environment, not architectural state.
func (m *Memory) Equal(o *Memory) bool {
	return m.size == o.size && m.FirstDiff(o) < 0
}

// FirstDiff returns the first address at which two images differ, the
// smaller size when only the sizes differ, or -1. A page the two share,
// or that neither stores, is skipped without reading it.
func (m *Memory) FirstDiff(o *Memory) int64 {
	n := min(m.size, o.size)
	for p, lo := 0, 0; lo < n; p, lo = p+1, lo+PageWords {
		a, b := m.pages[p].words, o.pages[p].words
		if a == b {
			continue
		}
		k := min(PageWords, n-lo)
		var i int
		switch {
		case a == nil:
			i = firstNonZero(b[:k])
		case b == nil:
			i = firstNonZero(a[:k])
		default:
			i = firstDiff(a[:k], b[:k])
		}
		if i >= 0 {
			return int64(lo + i)
		}
	}
	if m.size != o.size {
		return int64(n)
	}
	return -1
}

// firstDiff returns the first index at which got differs from want, or
// -1; want is at least as long as got. FirstDiff reads every word of
// each page the two images do not share, so the loop tests eight words
// with one branch.
func firstDiff(want, got []int64) int {
	want = want[:len(got)]
	i := 0
	for ; i+8 <= len(got); i += 8 {
		w, g := want[i:i+8:i+8], got[i:i+8:i+8]
		if (w[0]^g[0])|(w[1]^g[1])|(w[2]^g[2])|(w[3]^g[3])|
			(w[4]^g[4])|(w[5]^g[5])|(w[6]^g[6])|(w[7]^g[7]) != 0 {
			break
		}
	}
	for ; i < len(got); i++ {
		if want[i] != got[i] {
			return i
		}
	}
	return -1
}

// firstNonZero is firstDiff against zeros.
func firstNonZero(got []int64) int {
	i := 0
	for ; i+8 <= len(got); i += 8 {
		g := got[i : i+8 : i+8]
		if g[0]|g[1]|g[2]|g[3]|g[4]|g[5]|g[6]|g[7] != 0 {
			break
		}
	}
	for ; i < len(got); i++ {
		if got[i] != 0 {
			return i
		}
	}
	return -1
}

// Unmap marks the page containing addr as unmapped: subsequent accesses
// to it fault until Map is called.
func (m *Memory) Unmap(addr int64) {
	if m.unmapped == nil {
		m.unmapped = make(map[int]bool)
	}
	m.unmapped[int(addr)/PageWords] = true
}

// Map restores the page containing addr.
func (m *Memory) Map(addr int64) {
	delete(m.unmapped, int(addr)/PageWords)
}

// Check reports the fault, if any, that an access to addr would raise.
func (m *Memory) Check(addr int64) *Fault {
	if addr < 0 || addr >= int64(m.size) {
		return &Fault{FaultBadAddress, addr}
	}
	if m.unmapped[int(addr)/PageWords] {
		return &Fault{FaultPage, addr}
	}
	return nil
}

// Read returns the word at addr, or a fault.
func (m *Memory) Read(addr int64) (int64, *Fault) {
	if f := m.Check(addr); f != nil {
		return 0, f
	}
	return m.word(addr), nil
}

// Write stores v at addr, or reports a fault.
func (m *Memory) Write(addr, v int64) *Fault {
	if f := m.Check(addr); f != nil {
		return f
	}
	m.set(addr, v)
	return nil
}

// Poke writes v at addr ignoring mapping (host-side initialisation).
// It panics on out-of-range addresses: that is a harness bug, not a
// simulated fault.
func (m *Memory) Poke(addr, v int64) {
	m.inRange(addr)
	m.set(addr, v)
}

// Peek reads the word at addr ignoring mapping. Like Poke, it panics on
// out-of-range addresses.
func (m *Memory) Peek(addr int64) int64 {
	m.inRange(addr)
	return m.word(addr)
}

func (m *Memory) inRange(addr int64) {
	if uint64(addr) >= uint64(m.size) {
		panic(&Fault{FaultBadAddress, addr})
	}
}

// word returns the word at an in-range addr.
func (m *Memory) word(addr int64) int64 {
	if w := m.pages[uint64(addr)/PageWords].words; w != nil {
		return w[uint64(addr)%PageWords]
	}
	return 0
}

// set stores v at an in-range addr, first copying its page unless m
// owns it.
func (m *Memory) set(addr, v int64) {
	s := &m.pages[uint64(addr)/PageWords]
	if !s.own {
		s.copyPage()
	}
	s.words[uint64(addr)%PageWords] = v
}

// copyPage gives the slot a page of its own, with the words of the one
// it shared (zeros for none). It allocates, on the per-cycle path of a
// simulation, but at most once per page per run: the slot owns its page
// from then on.
func (s *slot) copyPage() {
	w := new(page)
	if s.words != nil {
		*w = *s.words
	}
	s.words, s.own = w, true
}
