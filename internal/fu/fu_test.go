package fu

import (
	"testing"

	"ruu/internal/isa"
)

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The relative magnitudes the model depends on.
	if !(l[isa.UnitSLog] < l[isa.UnitAInt] && l[isa.UnitAInt] < l[isa.UnitSAdd]) {
		t.Error("logical < address add < scalar add violated")
	}
	if !(l[isa.UnitFAdd] < l[isa.UnitFMul] && l[isa.UnitFMul] < l[isa.UnitFRecip]) {
		t.Error("fadd < fmul < frecip violated")
	}
	if l.Max() != l[isa.UnitFRecip] {
		t.Errorf("Max = %d, want the reciprocal latency", l.Max())
	}
}

func TestLatenciesValidate(t *testing.T) {
	l := DefaultLatencies()
	l[isa.UnitMem] = 0
	if err := l.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestResultBusExclusivity(t *testing.T) {
	b := NewResultBus()
	if !b.Reserve(5) {
		t.Fatal("first reservation failed")
	}
	if b.Reserve(5) {
		t.Fatal("double reservation of one cycle succeeded")
	}
	if !b.Busy(5) || b.Busy(6) {
		t.Fatal("Busy wrong")
	}
	if !b.Reserve(6) {
		t.Fatal("adjacent cycle refused")
	}
}

func TestResultBusAdvanceRecycles(t *testing.T) {
	b := NewResultBus()
	for c := int64(0); c < 200; c++ {
		b.Advance(c)
		if !b.Reserve(c + 10) {
			t.Fatalf("cycle %d: reservation failed after recycling", c)
		}
	}
}

func TestResultBusClearKeepsTime(t *testing.T) {
	b := NewResultBus()
	b.Advance(100)
	b.Reserve(105)
	b.Clear()
	if b.Busy(105) {
		t.Fatal("Clear left a reservation")
	}
	if !b.Reserve(105) {
		t.Fatal("reservation after Clear failed")
	}
	// Time must not have rewound: past access still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("past-cycle access did not panic after Clear")
		}
	}()
	b.Busy(50)
}

func TestResultBusPanics(t *testing.T) {
	b := NewResultBus()
	b.Advance(10)
	t.Run("past", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for past cycle")
			}
		}()
		b.Reserve(9)
	})
	t.Run("far-future", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for far-future cycle")
			}
		}()
		b.Reserve(10 + busWindow)
	})
}

// TestResultBusAdvanceJumps advances a full window by steps that wrap
// the ring or skip it whole: exactly the passed slots are recycled.
func TestResultBusAdvanceJumps(t *testing.T) {
	b := NewResultBus()
	base := int64(0)
	for _, step := range []int64{3, 61, 64, 1, 130, 7, 63} {
		for c := base; c < base+busWindow; c++ {
			b.Reserve(c)
		}
		end := base + busWindow
		base += step
		b.Advance(base)
		for c := base; c < base+busWindow; c++ {
			if b.Busy(c) != (c < end) {
				t.Fatalf("after advancing %d to %d: Busy(%d) = %v", step, base, c, b.Busy(c))
			}
		}
	}
}
