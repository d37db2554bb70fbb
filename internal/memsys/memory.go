// Package memsys implements the memory side of the model architecture:
// the word-addressed memory image shared by the functional executor and
// the timing engines, and the paper's load-register mechanism for memory
// disambiguation and store-to-load forwarding (§3.2.1.2).
package memsys

import "fmt"

// PageWords is the page size, in 64-bit words, used for fault injection.
// Pages can be unmapped to make any access to them raise a page fault,
// which is how the precise-interrupt experiments trigger faults at
// controlled points.
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
// unmapped pages. The zero value is unusable; use NewMemory.
type Memory struct {
	words    []int64
	unmapped map[int]bool
}

// DefaultWords is the default memory size: 32Ki words, addressable by the
// 16-bit signed immediates of the ISA.
const DefaultWords = 1 << 15

// NewMemory returns a zeroed memory image of the given size in words.
func NewMemory(words int) *Memory {
	if words <= 0 {
		words = DefaultWords
	}
	return &Memory{words: make([]int64, words)}
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return len(m.words) }

// Clone returns an independent deep copy of the memory image.
func (m *Memory) Clone() *Memory {
	c := &Memory{words: make([]int64, len(m.words))}
	copy(c.words, m.words)
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
	if len(m.words) != len(o.words) {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// FirstDiff returns the first address at which two images differ, or -1.
func (m *Memory) FirstDiff(o *Memory) int64 {
	n := min(len(m.words), len(o.words))
	if i := firstDiff(m.words[:n], o.words[:n]); i >= 0 {
		return int64(i)
	}
	if len(m.words) != len(o.words) {
		return int64(n)
	}
	return -1
}

// Image is a read-only, page-sparse copy of a memory image: its size
// and those of its pages of PageWords words that hold a non-zero word.
// A page of zeros is not stored. Mapping state is not kept: like Equal
// and FirstDiff, an Image is about architectural state only.
type Image struct {
	size  int
	pages [][]int64 // by page index; nil for a page of zeros
}

// Sparse returns a page-sparse copy of m's words.
func (m *Memory) Sparse() *Image {
	im := &Image{size: len(m.words), pages: make([][]int64, (len(m.words)+PageWords-1)/PageWords)}
	for p := range im.pages {
		page := m.words[p*PageWords : min((p+1)*PageWords, len(m.words))]
		if firstNonZero(page) >= 0 {
			im.pages[p] = append([]int64(nil), page...)
		}
	}
	return im
}

// FirstDiff returns what FirstDiff between m and the image this copy was
// taken from returns: the first address at which they differ, the
// smaller size when only the sizes differ, or -1. It compares whole page
// slices, reading a page that is not stored as zeros.
func (im *Image) FirstDiff(m *Memory) int64 {
	n := min(im.size, len(m.words))
	for p, page := range im.pages {
		lo := p * PageWords
		if lo >= n {
			break
		}
		got := m.words[lo:min(lo+PageWords, n)]
		var i int
		if page == nil {
			i = firstNonZero(got)
		} else {
			i = firstDiff(page, got)
		}
		if i >= 0 {
			return int64(lo + i)
		}
	}
	if im.size != len(m.words) {
		return int64(n)
	}
	return -1
}

// firstDiff returns the first index at which got differs from want, or
// -1; want is at least as long as got. A verify reads every word of a
// 32Ki-word image, so the loop tests eight words with one branch.
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
	if addr < 0 || addr >= int64(len(m.words)) {
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
	return m.words[addr], nil
}

// Write stores v at addr, or reports a fault.
func (m *Memory) Write(addr, v int64) *Fault {
	if f := m.Check(addr); f != nil {
		return f
	}
	m.words[addr] = v
	return nil
}

// Poke writes v at addr ignoring mapping (host-side initialisation).
// It panics on out-of-range addresses: that is a harness bug, not a
// simulated fault.
func (m *Memory) Poke(addr, v int64) {
	m.words[addr] = v
}

// Peek reads the word at addr ignoring mapping.
func (m *Memory) Peek(addr int64) int64 {
	return m.words[addr]
}
