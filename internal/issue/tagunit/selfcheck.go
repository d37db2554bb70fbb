package tagunit

import (
	"fmt"

	"ruu/internal/isa"
)

// SelfCheck validates the queue's structural invariants (the pool
// organisations have none to check); tests run it after simulation and,
// from a probe, on every cycle:
//
//  1. the in-flight count is consistent with the head/tail positions;
//  2. every used station lies between head and tail, every free one
//     outside ("RUU slots that do not lie between RUU_Head and RUU_Tail
//     are free");
//  3. for every register, NI equals the number of in-flight entries
//     destined for it, and never exceeds 2^n − 1;
//  4. the LI counter equals the youngest in-flight instance of each
//     register with NI > 0;
//  5. sequence numbers strictly increase from head to tail (commit
//     order is program order).
func (e *Engine) SelfCheck() error {
	if !e.queue {
		return nil
	}
	size := len(e.stations)
	want := (e.tail - e.head + size) % size
	if want == 0 && e.inFlight == size {
		want = size
	}
	if e.inFlight != want {
		return fmt.Errorf("tagunit: count=%d but head=%d tail=%d imply %d", e.inFlight, e.head, e.tail, want)
	}
	inWindow := make([]bool, size)
	var ni [isa.NumRegs]uint8
	var li [isa.NumRegs]int64
	prev := int64(-1)
	for i, p := 0, e.head; i < e.inFlight; i, p = i+1, e.next(p) {
		s := &e.stations[p]
		inWindow[p] = true
		if !s.used {
			continue
		}
		if s.seq <= prev {
			return fmt.Errorf("tagunit: entry %d seq %d not after %d", p, s.seq, prev)
		}
		prev = s.seq
		if s.hasDest {
			ni[s.dest.Flat()]++
			li[s.dest.Flat()] = s.tag
		}
	}
	for p := range e.stations {
		if e.stations[p].used != inWindow[p] {
			return fmt.Errorf("tagunit: entry %d used=%v but window [%d,%d) count=%d",
				p, e.stations[p].used, e.head, e.tail, e.inFlight)
		}
	}
	for f := range e.ni {
		if e.ni[f] != ni[f] {
			return fmt.Errorf("tagunit: NI[%d]=%d but %d in-flight producers", f, e.ni[f], ni[f])
		}
		if e.ni[f] > e.instMask {
			return fmt.Errorf("tagunit: NI[%d]=%d exceeds 2^n-1=%d", f, e.ni[f], e.instMask)
		}
		if ni[f] > 0 && e.regTag[f] != li[f] {
			return fmt.Errorf("tagunit: LI[%d] tag %#x but youngest in-flight instance is %#x", f, e.regTag[f], li[f])
		}
	}
	return nil
}
