package tagunit

import (
	"fmt"

	"ruu/internal/isa"
)

// SelfCheck validates the engine's structural invariants; tests run it
// after simulation and, from a probe, on every cycle. For the queue:
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
//
// For every organisation, the event-driven structures must mirror the
// stations exactly (checkLists).
func (e *Engine) SelfCheck() error {
	if e.queue {
		if err := e.checkQueue(); err != nil {
			return err
		}
	}
	return e.checkLists()
}

func (e *Engine) checkQueue() error {
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
	var li [isa.NumRegs]int32
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
			if e.producer[s.tag] != int32(p) {
				return fmt.Errorf("tagunit: producer of tag %#x is %d, not entry %d", s.tag, e.producer[s.tag], p)
			}
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

// checkLists verifies that the event-driven structures mirror the
// stations:
//
//  1. waiter lists: waiting[t] holds exactly the used stations' operands
//     that wait for tag t, oldest first;
//  2. ready lists: ready[memReady] holds exactly the bound memory
//     operations neither executed nor faulted, and ready[aluReady] the
//     unit operations with both operands on hand not yet dispatched,
//     each oldest first;
//  3. free lists (pool organisations): free[u] holds each free station
//     of class u once, and tuFree each Tag Unit entry that no station or
//     flight holds;
//  4. the memory queue holds exactly the unbound memory operations, in
//     program order.
func (e *Engine) checkLists() error {
	n := len(e.stations)
	waiting := 0
	for i := range e.stations {
		s := &e.stations[i]
		if s.used && !s.op1.ready {
			waiting++
		}
		if s.used && !s.op2.ready {
			waiting++
		}
	}
	linked := 0
	for t, l := range e.waiting {
		prev, seq := int32(none), int64(-1)
		for w := l.first; w != none; w = e.wNext[w] {
			if linked++; linked > 2*n || e.wPrev[w] != prev {
				return fmt.Errorf("tagunit: waiter list %#x is malformed at node %d", t, w)
			}
			s := &e.stations[w>>1]
			op := &s.op1
			if w&1 != 0 {
				op = &s.op2
			}
			if !s.used || op.ready || op.tag != int32(t) || s.seq < seq {
				return fmt.Errorf("tagunit: waiter list %#x holds operand %d of entry %d (used=%v ready=%v tag=%#x)",
					t, w&1, w>>1, s.used, op.ready, op.tag)
			}
			prev, seq = w, s.seq
		}
		if l.last != prev {
			return fmt.Errorf("tagunit: waiter list %#x ends at %d, not %d", t, l.last, prev)
		}
	}
	if linked != waiting {
		return fmt.Errorf("tagunit: %d waiting operands but %d on waiter lists", waiting, linked)
	}

	for _, k := range []readyKind{memReady, aluReady} {
		want := 0
		for i := range e.stations {
			if e.wantReady(i) == k {
				want++
			}
		}
		got, prev, seq := 0, int32(none), int64(-1)
		for i := e.ready[k].first; i != none; i = e.rNext[i] {
			s := &e.stations[i]
			if got++; got > n || e.rPrev[i] != prev || s.on != k || e.wantReady(int(i)) != k || s.seq <= seq {
				return fmt.Errorf("tagunit: ready list %d is malformed at entry %d", k, i)
			}
			prev, seq = i, s.seq
		}
		if got != want || e.ready[k].last != prev {
			return fmt.Errorf("tagunit: ready list %d holds %d entries, want %d", k, got, want)
		}
	}

	if !e.queue {
		onFree := make([]bool, n)
		for u, fl := range e.free {
			for _, i := range fl {
				if onFree[i] || e.stations[i].used || e.class(int(i)) != isa.Unit(u) {
					return fmt.Errorf("tagunit: free list %d holds entry %d wrongly", u, i)
				}
				onFree[i] = true
			}
		}
		for i := range e.stations {
			if !e.stations[i].used && !onFree[i] {
				return fmt.Errorf("tagunit: free entry %d is on no free list", i)
			}
		}
	}
	if e.cfg.TagUnitSize > 0 {
		held := make([]bool, e.cfg.TagUnitSize)
		for i := range e.stations {
			if s := &e.stations[i]; s.used && s.hasDest {
				held[s.tag] = true
			}
		}
		for i := range e.ring {
			if fl := &e.ring[i]; fl.live {
				held[fl.tag] = true
			}
		}
		free := 0
		for _, t := range e.tuFree {
			if held[t] {
				return fmt.Errorf("tagunit: Tag Unit entry %d is both free and held", t)
			}
			held[t] = true
			free++
		}
		if free+e.outstanding() != e.cfg.TagUnitSize {
			return fmt.Errorf("tagunit: %d free Tag Unit entries and %d held, of %d", free, e.outstanding(), e.cfg.TagUnitSize)
		}
	}

	prevSeq := int64(-1)
	unbound := 0
	for i := range e.stations {
		if s := &e.stations[i]; s.used && s.phase == memUnbound {
			unbound++
		}
	}
	for k := 0; k < e.memLen; k++ {
		s := &e.stations[*e.memAt(k)]
		if !s.used || s.phase != memUnbound || s.seq <= prevSeq {
			return fmt.Errorf("tagunit: memory queue position %d holds a wrong entry", k)
		}
		prevSeq = s.seq
	}
	if unbound != e.memLen {
		return fmt.Errorf("tagunit: %d unbound memory operations but %d queued", unbound, e.memLen)
	}
	return nil
}

// wantReady returns the ready list station i belongs on.
func (e *Engine) wantReady(i int) readyKind {
	s := &e.stations[i]
	switch {
	case !s.used || s.dispatched:
		return offReady
	case s.phase == memBound && s.fault == nil:
		return memReady
	case s.phase == memNone && !s.isBranch && !s.executed && s.op1.ready && s.op2.ready:
		return aluReady
	}
	return offReady
}

// outstanding counts the Tag Unit entries held by stations and flights.
func (e *Engine) outstanding() int {
	n := 0
	for i := range e.stations {
		if s := &e.stations[i]; s.used && s.hasDest {
			n++
		}
	}
	for i := range e.ring {
		if e.ring[i].live {
			n++
		}
	}
	return n
}
