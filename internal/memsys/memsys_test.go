package memsys

import (
	"testing"
	"testing/quick"
)

func TestMemoryBasics(t *testing.T) {
	m := NewMemory(1024)
	if m.Size() != 1024 {
		t.Fatalf("size = %d", m.Size())
	}
	if err := m.Write(5, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(5)
	if err != nil || v != 42 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if NewMemory(0).Size() != DefaultWords {
		t.Fatal("default size not applied")
	}
}

func TestMemoryFaults(t *testing.T) {
	m := NewMemory(1024)
	if _, f := m.Read(-1); f == nil || f.Kind != FaultBadAddress {
		t.Fatalf("negative read fault = %v", f)
	}
	if _, f := m.Read(1024); f == nil || f.Kind != FaultBadAddress {
		t.Fatalf("oob read fault = %v", f)
	}
	if f := m.Write(9999, 1); f == nil || f.Kind != FaultBadAddress {
		t.Fatalf("oob write fault = %v", f)
	}
	if got := (&Fault{FaultPage, 77}).Error(); got != "memsys: page-fault at address 77" {
		t.Errorf("Error() = %q", got)
	}
	if FaultNone.String() != "none" || FaultBadAddress.String() != "bad-address" || FaultPage.String() != "page-fault" {
		t.Error("FaultKind strings wrong")
	}
}

func TestUnmapMap(t *testing.T) {
	m := NewMemory(4 * PageWords)
	addr := int64(PageWords + 5) // page 1
	m.Unmap(addr)
	if _, f := m.Read(addr); f == nil || f.Kind != FaultPage {
		t.Fatal("unmapped page readable")
	}
	if _, f := m.Read(addr - 6); f != nil {
		t.Fatal("page 0 affected by unmapping page 1")
	}
	if f := m.Write(int64(PageWords), 1); f == nil {
		t.Fatal("unmapped page writable")
	}
	// Poke/Peek bypass mapping for host-side setup.
	m.Poke(addr, 11)
	if m.Peek(addr) != 11 {
		t.Fatal("poke/peek blocked by mapping")
	}
	m.Map(addr)
	if _, f := m.Read(addr); f != nil {
		t.Fatal("mapped page still faulting")
	}
}

func TestCloneEqualFirstDiff(t *testing.T) {
	m := NewMemory(128)
	m.Poke(3, 7)
	m.Unmap(0)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Poke(100, 1)
	if m.Equal(c) {
		t.Fatal("diverged clone still equal")
	}
	if d := m.FirstDiff(c); d != 100 {
		t.Fatalf("FirstDiff = %d, want 100", d)
	}
	if d := m.FirstDiff(m.Clone()); d != -1 {
		t.Fatalf("FirstDiff identical = %d, want -1", d)
	}
	other := NewMemory(64)
	if m.Equal(other) {
		t.Fatal("different sizes equal")
	}
	if d := m.FirstDiff(NewMemory(127)); d < 0 {
		t.Fatal("size mismatch should yield a diff position")
	}
}

func TestLoadRegsMiss(t *testing.T) {
	lr := NewLoadRegs(2)
	b, toMem, ok := lr.Bind(100, false)
	if !ok || !toMem {
		t.Fatalf("fresh load: toMem=%v ok=%v", toMem, ok)
	}
	if lr.InUse() != 1 {
		t.Fatalf("in use = %d", lr.InUse())
	}
	if lr.MustForward(b) {
		t.Fatal("first op must not forward")
	}
	if _, ok := lr.Forward(b); ok {
		t.Fatal("first op has nothing to forward from")
	}
	lr.SetData(b, 7)
	lr.Release(b)
	if lr.InUse() != 0 {
		t.Fatal("register not freed")
	}
}

func TestLoadRegsStoreToLoadForwarding(t *testing.T) {
	lr := NewLoadRegs(4)
	st, toMem, ok := lr.Bind(100, true)
	if !ok || toMem {
		t.Fatalf("store bind: toMem=%v ok=%v", toMem, ok)
	}
	ld, toMem, ok := lr.Bind(100, false)
	if !ok {
		t.Fatal("load bind failed")
	}
	if toMem {
		t.Fatal("load hitting a pending store must not go to memory")
	}
	if !lr.MustForward(ld) {
		t.Fatal("chained load must forward")
	}
	if _, ok := lr.Forward(ld); ok {
		t.Fatal("forwarded before store data available")
	}
	lr.SetData(st, 42)
	v, ok := lr.Forward(ld)
	if !ok || v != 42 {
		t.Fatalf("forward = %d, %v", v, ok)
	}
	lr.Release(st)
	// Data must remain forwardable after the producer releases, until
	// the whole chain drains.
	v, ok = lr.Forward(ld)
	if !ok || v != 42 {
		t.Fatal("buffered data lost at producer release")
	}
	lr.Release(ld)
	if lr.InUse() != 0 {
		t.Fatal("register not freed after chain drained")
	}
}

// TestLoadRegsStoreStoreOrder: a store may write memory only once every
// older store on its chain has written or been squashed; loads between
// them do not hold it back.
func TestLoadRegsStoreStoreOrder(t *testing.T) {
	lr := NewLoadRegs(2)
	s1, _, _ := lr.Bind(8, true)
	l, _, _ := lr.Bind(8, false)
	s2, _, _ := lr.Bind(8, true)
	s3, _, _ := lr.Bind(8, true)
	if !lr.OlderStoresWritten(s1) || !lr.OlderStoresWritten(Invalid) {
		t.Fatal("the oldest store (or no binding) must be free to write")
	}
	if lr.OlderStoresWritten(s2) {
		t.Fatal("younger store may write before the older store")
	}
	lr.Release(s1)
	if !lr.OlderStoresWritten(s2) {
		t.Fatal("older store written, but the younger one is still held (by a load?)")
	}
	lr.Squash(s2)
	if !lr.OlderStoresWritten(s3) {
		t.Fatal("a squashed store must not hold younger stores back")
	}
	lr.Release(l)
	lr.Release(s3)
}

func TestLoadRegsLoadLoadChain(t *testing.T) {
	lr := NewLoadRegs(4)
	l1, toMem, _ := lr.Bind(64, false)
	if !toMem {
		t.Fatal("l1 should access memory")
	}
	l2, toMem, _ := lr.Bind(64, false)
	if toMem {
		t.Fatal("l2 should forward from l1")
	}
	lr.SetData(l1, 9)
	if v, ok := lr.Forward(l2); !ok || v != 9 {
		t.Fatalf("l2 forward = %d,%v", v, ok)
	}
	lr.Release(l1)
	lr.Release(l2)
}

func TestLoadRegsMiddleLoadOrdering(t *testing.T) {
	// L1 (load), L2 (load), S (store), same address: L2 must take L1's
	// value even if the store's data arrives first.
	lr := NewLoadRegs(4)
	l1, _, _ := lr.Bind(10, false)
	l2, _, _ := lr.Bind(10, false)
	s, _, _ := lr.Bind(10, true)
	lr.SetData(s, 999) // store executes early
	if _, ok := lr.Forward(l2); ok {
		t.Fatal("L2 forwarded the younger store's data")
	}
	lr.SetData(l1, 5) // memory returns for L1
	if v, ok := lr.Forward(l2); !ok || v != 5 {
		t.Fatalf("L2 forward = %d,%v; want 5", v, ok)
	}
	// A load younger than the store sees the store's data.
	l3, _, _ := lr.Bind(10, false)
	if v, ok := lr.Forward(l3); !ok || v != 999 {
		t.Fatalf("L3 forward = %d,%v; want 999", v, ok)
	}
	lr.Release(l1)
	lr.Release(l2)
	lr.Release(s)
	lr.Release(l3)
	if lr.InUse() != 0 {
		t.Fatal("chain not drained")
	}
}

func TestLoadRegsExhaustion(t *testing.T) {
	lr := NewLoadRegs(2)
	b1, _, ok1 := lr.Bind(1, false)
	_, _, ok2 := lr.Bind(2, false)
	if !ok1 || !ok2 {
		t.Fatal("first two binds failed")
	}
	if _, _, ok := lr.Bind(3, false); ok {
		t.Fatal("third distinct address bound with 2 registers")
	}
	// Same address still binds (chains onto the existing register).
	if _, _, ok := lr.Bind(1, true); !ok {
		t.Fatal("same-address bind refused")
	}
	lr.SetData(b1, 0)
	lr.Release(b1)
	// b1's register is still held by the chained store.
	if _, _, ok := lr.Bind(3, false); ok {
		t.Fatal("register freed while chain pending")
	}
}

func TestLoadRegsSquash(t *testing.T) {
	lr := NewLoadRegs(2)
	s, _, _ := lr.Bind(5, true)
	lr.SetData(s, 77)
	l, _, _ := lr.Bind(5, false)
	if v, ok := lr.Forward(l); !ok || v != 77 {
		t.Fatalf("pre-squash forward = %d,%v", v, ok)
	}
	lr.Squash(l) // the load was speculative and is nullified
	// New (correct-path) load binds after the squash and still forwards
	// from the store.
	l2, _, _ := lr.Bind(5, false)
	if v, ok := lr.Forward(l2); !ok || v != 77 {
		t.Fatalf("post-squash forward = %d,%v", v, ok)
	}
	// Squashing the store invalidates its buffered data for later
	// forwarders.
	lr.Squash(s)
	if lr.MustForward(l2) {
		t.Fatal("l2 still chained to squashed producers")
	}
	lr.Release(l2)
	if lr.InUse() != 0 {
		t.Fatal("not drained")
	}
}

func TestLoadRegsDoubleReleasePanics(t *testing.T) {
	lr := NewLoadRegs(1)
	b, _, _ := lr.Bind(1, false)
	lr.SetData(b, 1)
	lr.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	lr.Release(b)
}

func TestLoadRegsReset(t *testing.T) {
	lr := NewLoadRegs(3)
	lr.Bind(1, false)
	lr.Bind(2, true)
	lr.Reset()
	if lr.InUse() != 0 {
		t.Fatal("reset left registers busy")
	}
	if _, _, ok := lr.Bind(9, false); !ok {
		t.Fatal("bind after reset failed")
	}
}

// TestLoadRegsInvariantQuick drives a random bind/set/release sequence
// and checks the pool never leaks or double-frees (testing/quick over an
// operation script).
func TestLoadRegsInvariantQuick(t *testing.T) {
	type op struct {
		Addr  uint8
		Store bool
		Kill  bool
	}
	f := func(script []op) bool {
		lr := NewLoadRegs(4)
		live := make([]Binding, 0, 16)
		for _, o := range script {
			if o.Kill && len(live) > 0 {
				b := live[len(live)-1]
				live = live[:len(live)-1]
				lr.SetData(b, 1)
				lr.Release(b)
				continue
			}
			b, _, ok := lr.Bind(int64(o.Addr%6), o.Store)
			if ok {
				live = append(live, b)
			}
			if lr.InUse() > lr.Size() {
				return false
			}
		}
		for i := len(live) - 1; i >= 0; i-- {
			lr.Release(live[i])
		}
		return lr.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
