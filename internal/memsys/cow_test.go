package memsys_test

import (
	"math/rand"
	"testing"

	"ruu/internal/memsys"
)

// cowSize is the size of the memories the copy-on-write checks start
// from: three whole pages and a partial one.
const cowSize = 3*memsys.PageWords + 13

// maxCowMems bounds how many memories one op sequence keeps; a Clone or
// a new memory beyond it replaces an existing one.
const maxCowMems = 6

// modelMem is a memory under test and the flat model it must match.
type modelMem struct {
	m        *memsys.Memory
	words    []int64
	unmapped map[int]bool
}

func (mm *modelMem) clone() *modelMem {
	c := &modelMem{m: mm.m.Clone(), words: append([]int64(nil), mm.words...), unmapped: map[int]bool{}}
	for p := range mm.unmapped {
		c.unmapped[p] = true
	}
	return c
}

// fault is the fault kind the model says an access to addr raises.
func (mm *modelMem) fault(addr int64) memsys.FaultKind {
	switch {
	case addr < 0 || addr >= int64(len(mm.words)):
		return memsys.FaultBadAddress
	case mm.unmapped[int(addr)/memsys.PageWords]:
		return memsys.FaultPage
	}
	return memsys.FaultNone
}

func kind(f *memsys.Fault) memsys.FaultKind {
	if f == nil {
		return memsys.FaultNone
	}
	return f.Kind
}

// modelFirstDiff is FirstDiff over flat word slices.
func modelFirstDiff(a, b []int64) int64 {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return int64(i)
		}
	}
	if len(a) != len(b) {
		return int64(n)
	}
	return -1
}

// opReader hands out an op sequence's bytes, then zeros.
type opReader struct{ b []byte }

func (r *opReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// addr draws an address in [-8, cowSize+8), so some accesses fall
// outside the memory.
func (r *opReader) addr() int64 {
	return int64((r.next()<<8|r.next())%(cowSize+16)) - 8
}

// inRange draws an address inside every memory an op sequence makes.
func (r *opReader) inRange() int64 {
	return int64((r.next()<<8 | r.next()) % (cowSize - 1))
}

// runMemoryOps interprets ops as Write, Poke, Read, Clone, Unmap, Map,
// Freeze, new-memory and compare operations on a set of memories that
// share pages through Clone, and checks every result against the flat
// models: a write changes the word it addresses in its own memory and
// in no other, and Equal and FirstDiff agree with the models for every
// pair at the end.
func runMemoryOps(t testing.TB, ops []byte) {
	t.Helper()
	mems := []*modelMem{{m: memsys.NewMemory(cowSize), words: make([]int64, cowSize), unmapped: map[int]bool{}}}
	add := func(mm *modelMem, slot int) {
		if len(mems) < maxCowMems {
			mems = append(mems, mm)
		} else {
			mems[slot%len(mems)] = mm
		}
	}
	// unchanged checks that no memory but mems[i] sees a change at addr.
	unchanged := func(step, i int, addr int64) {
		for j, o := range mems {
			if j != i && addr < int64(len(o.words)) && o.m.Peek(addr) != o.words[addr] {
				t.Fatalf("op %d: a write to memory %d at %d shows in memory %d: %d, want %d",
					step, i, addr, j, o.m.Peek(addr), o.words[addr])
			}
		}
	}
	r := &opReader{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		op := r.next() % 9
		i := r.next() % len(mems)
		mm := mems[i]
		switch op {
		case 0: // Write
			addr, v := r.addr(), int64(int8(r.next()))
			want := mm.fault(addr)
			if got := kind(mm.m.Write(addr, v)); got != want {
				t.Fatalf("op %d: Write(%d) on memory %d: fault %v, want %v", step, addr, i, got, want)
			}
			if want == memsys.FaultNone {
				mm.words[addr] = v
				unchanged(step, i, addr)
			}
		case 1: // Poke
			addr, v := r.inRange(), int64(int8(r.next()))
			mm.m.Poke(addr, v)
			mm.words[addr] = v
			unchanged(step, i, addr)
		case 2: // Read
			addr := r.addr()
			v, f := mm.m.Read(addr)
			if want := mm.fault(addr); kind(f) != want {
				t.Fatalf("op %d: Read(%d) on memory %d: fault %v, want %v", step, addr, i, kind(f), want)
			} else if want == memsys.FaultNone && v != mm.words[addr] {
				t.Fatalf("op %d: Read(%d) on memory %d = %d, want %d", step, addr, i, v, mm.words[addr])
			}
		case 3: // Clone
			add(mm.clone(), r.next())
		case 4: // Unmap
			addr := r.inRange()
			mm.m.Unmap(addr)
			mm.unmapped[int(addr)/memsys.PageWords] = true
		case 5: // Map
			addr := r.inRange()
			mm.m.Map(addr)
			delete(mm.unmapped, int(addr)/memsys.PageWords)
		case 6: // Freeze
			mm.m.Freeze()
		case 7: // a new zeroed memory, of the common size or not
			n := []int{cowSize, cowSize - 1, cowSize + memsys.PageWords}[r.next()%3]
			add(&modelMem{m: memsys.NewMemory(n), words: make([]int64, n), unmapped: map[int]bool{}}, r.next())
		case 8: // compare
			o := mems[r.next()%len(mems)]
			checkCompare(t, mm, o)
		}
	}
	for i, mm := range mems {
		for a := range mm.words {
			if got := mm.m.Peek(int64(a)); got != mm.words[a] {
				t.Fatalf("memory %d word %d = %d, want %d", i, a, got, mm.words[a])
			}
		}
		for _, o := range mems {
			checkCompare(t, mm, o)
		}
	}
}

// checkCompare checks Equal and FirstDiff between two memories, both
// ways, against their models.
func checkCompare(t testing.TB, a, b *modelMem) {
	t.Helper()
	want := modelFirstDiff(a.words, b.words)
	if d, back := a.m.FirstDiff(b.m), b.m.FirstDiff(a.m); d != want || back != want {
		t.Fatalf("FirstDiff = %d, reversed %d, want %d", d, back, want)
	}
	if eq := a.m.Equal(b.m); eq != (want < 0) {
		t.Fatalf("Equal = %v, want %v", eq, want < 0)
	}
}

// TestCopyOnWriteMatchesFlatModel runs random op sequences (see
// runMemoryOps) against a flat []int64 model of each memory.
func TestCopyOnWriteMatchesFlatModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 50+r.Intn(400))
		r.Read(ops)
		runMemoryOps(t, ops)
	}
}

// FuzzMemory fuzzes the op sequences of runMemoryOps. Its committed
// seeds are under testdata/fuzz/FuzzMemory.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { runMemoryOps(t, ops) })
}
