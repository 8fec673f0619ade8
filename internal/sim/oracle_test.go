package sim

// The differential oracle for the event queue: the binary-heap engine the
// 4-ary inline-key heap replaced, kept verbatim (renamed) so the queue
// property and fuzz tests in queue_test.go can drive both through the same
// operations and demand identical behavior.

import "math"

// oracleSlot is one pooled event in the engine's slab.
type oracleSlot struct {
	at  Time
	seq uint64
	fn  func()
	gen uint32
	pos int32 // position in the heap; -1 when free
}

// oracleEngine is the engine as it was before the inline-key 4-ary heap:
// a binary heap of slot indices with eager, position-tracked Cancel.
//
// The zero value is not usable; call newOracleEngine.
type oracleEngine struct {
	now   Time
	slots []oracleSlot
	free  []int32
	heap  []int32 // slot indices ordered by (at, seq)
	seq   uint64
	// executed counts callbacks run, for tests and runaway detection.
	executed uint64
	stopped  bool
}

// newOracleEngine returns an engine with the clock at zero and an empty heap.
func newOracleEngine() *oracleEngine {
	return &oracleEngine{}
}

// Now returns the current virtual time.
func (e *oracleEngine) Now() Time { return e.now }

// Executed returns the number of event callbacks run so far.
func (e *oracleEngine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled.
func (e *oracleEngine) Pending() int { return len(e.heap) }

// Schedule runs fn after delay (relative to Now). A negative delay is
// clamped to zero so causality is preserved. A non-finite delay panics,
// naming the call site: NaN would slip past the clamp (every comparison
// against NaN is false), enter the heap, and poison every heapLess
// comparison, while ±Inf enters as an event that can never fire and turns
// subsequent time arithmetic into Inf/NaN — the same silent corruption.
// It returns a handle usable with Cancel.
func (e *oracleEngine) Schedule(delay Time, fn func()) Event {
	// delay != delay is math.IsNaN; the MaxFloat64 comparisons are
	// math.IsInf — spelled out to stay a branch-only hot path.
	if delay != delay || delay > math.MaxFloat64 || delay < -math.MaxFloat64 {
		panicNonFinite("Schedule", delay)
	}
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, clamped to Now if already past.
// A non-finite time panics, naming the call site (see Schedule).
func (e *oracleEngine) At(t Time, fn func()) Event {
	if t != t || t > math.MaxFloat64 || t < -math.MaxFloat64 {
		panicNonFinite("At", t)
	}
	if t < e.now {
		t = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		// Generations start at 1 so the zero Event never matches a slot.
		e.slots = append(e.slots, oracleSlot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at = t
	s.seq = e.seq
	s.fn = fn
	e.seq++
	e.heapPush(idx)
	return Event{idx: idx, gen: s.gen}
}

// Scheduled reports whether the event the handle refers to is still
// pending (not yet fired and not canceled).
func (e *oracleEngine) Scheduled(ev Event) bool {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[ev.idx]
	return s.gen == ev.gen && s.pos >= 0
}

// Cancel prevents a scheduled event from running. Canceling the zero
// Event, an event that already ran, or canceling twice, is a no-op.
func (e *oracleEngine) Cancel(ev Event) {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.pos < 0 {
		return // already fired, canceled, or slot reused
	}
	e.heapRemove(int(s.pos))
	e.release(ev.idx)
}

// release returns a slot to the free list and invalidates outstanding
// handles by bumping the generation.
func (e *oracleEngine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	s.pos = -1
	e.free = append(e.free, idx)
}

// Stop makes the current Run return after the in-flight callback.
func (e *oracleEngine) Stop() { e.stopped = true }

// Reset rewinds the engine to its initial state while keeping the event
// slab, so a recycled engine schedules into already-allocated slots: the
// clock returns to zero, every pending event is dropped, and all slots
// rejoin the free list. Each slot's generation is bumped, so handles held
// from before the reset can never cancel or match a post-reset event —
// stale cancels stay harmless no-ops, exactly as for fired events.
func (e *oracleEngine) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		s.at = 0
		s.seq = 0
		s.fn = nil
		s.gen++
		s.pos = -1
	}
	if cap(e.free) < len(e.slots) {
		e.free = make([]int32, 0, len(e.slots))
	}
	e.free = e.free[:0]
	// Descending indices so the next At pops slot 0 first and a recycled
	// engine fills its slab in the same order a fresh one grows it.
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
}

// Run drains the event heap until empty or Stop is called. It returns the
// final virtual time.
func (e *oracleEngine) Run() Time { return e.RunUntil(Forever) }

// RunUntil drains events with timestamps ≤ horizon. Events scheduled beyond
// the horizon remain pending; the clock is advanced to the horizon if the
// heap empties earlier than horizon only when horizon is finite.
func (e *oracleEngine) RunUntil(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		idx := e.heap[0]
		s := &e.slots[idx]
		if s.at > horizon {
			break
		}
		fn := s.fn
		e.now = s.at
		e.heapRemove(0)
		// Release before the callback so fn can recycle the slot; the
		// generation bump keeps any retained handle from matching it.
		e.release(idx)
		e.executed++
		fn()
	}
	if horizon != Forever && e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// heapLess orders slots by (at, seq) so equal-time events run FIFO.
func (e *oracleEngine) heapLess(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *oracleEngine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	pos := len(e.heap) - 1
	e.slots[idx].pos = int32(pos)
	e.heapUp(pos)
}

// heapRemove deletes the element at heap position pos.
func (e *oracleEngine) heapRemove(pos int) {
	last := len(e.heap) - 1
	if pos != last {
		e.heapSwap(pos, last)
	}
	e.slots[e.heap[last]].pos = -1
	e.heap = e.heap[:last]
	if pos != last {
		if !e.heapDown(pos) {
			e.heapUp(pos)
		}
	}
}

func (e *oracleEngine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.slots[e.heap[i]].pos = int32(i)
	e.slots[e.heap[j]].pos = int32(j)
}

func (e *oracleEngine) heapUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !e.heapLess(e.heap[pos], e.heap[parent]) {
			break
		}
		e.heapSwap(pos, parent)
		pos = parent
	}
}

// heapDown sifts the element at pos toward the leaves; it reports whether
// the element moved.
func (e *oracleEngine) heapDown(pos int) bool {
	start := pos
	n := len(e.heap)
	for {
		child := 2*pos + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && e.heapLess(e.heap[right], e.heap[child]) {
			child = right
		}
		if !e.heapLess(e.heap[child], e.heap[pos]) {
			break
		}
		e.heapSwap(pos, child)
		pos = child
	}
	return pos > start
}
