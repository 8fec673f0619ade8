// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an event heap. Components schedule
// closures at absolute or relative virtual times; Run drains the heap in
// timestamp order (FIFO among equal timestamps) until the heap is empty, a
// horizon is reached, or Stop is called. The engine is strictly
// single-threaded: all model code runs inside event callbacks, so no model
// state needs locking.
//
// Event storage is pooled: scheduled callbacks live in a slab inside the
// engine and are recycled through a free list, so the steady-state
// schedule/fire/cancel cycle allocates nothing (see DESIGN.md §8). Handles
// are index+generation pairs, which makes stale cancels (of an event that
// already fired and whose slot was reused) harmless no-ops.
//
// The queue is a 4-ary heap whose entries carry their ordering key
// (time, sequence number) and the slot's generation inline, so sifting
// reads only the heap array. Cancel is lazy: it releases the slot at once
// and leaves the entry behind as a tombstone, which the run loop discards
// when it surfaces and which a compaction sweeps out once tombstones
// outnumber live events.
//
// All stochastic model inputs are drawn from RNG streams derived from a
// single seed (see rng.go), which makes every simulation fully reproducible.
package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Time is a virtual-time instant or span, in seconds since simulation start.
//
// Seconds-as-float keeps cycle/frequency arithmetic natural
// (cycles ÷ Hz = seconds) at the cost of ~15 significant digits, which is
// far below event granularity for the hour-scale sessions simulated here.
type Time float64

// Common spans.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
	Minute      Time = 60
)

// Forever is a horizon later than any event a model schedules.
const Forever Time = math.MaxFloat64

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// String formats the time with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Event is a handle to a scheduled callback, usable for cancellation. The
// zero Event is "no event": canceling it is a no-op. Handles are
// generation-checked, so holding one past its firing (or past a Cancel) is
// safe — a later Cancel through the stale handle does nothing even if the
// underlying slot has been reused.
type Event struct {
	idx int32
	gen uint32
}

// Valid reports whether the handle refers to some scheduled event (past or
// present); the zero Event is invalid.
func (e Event) Valid() bool { return e.gen != 0 }

// eventSlot is one pooled event in the engine's slab: just the callback
// and its generation. The ordering key lives in the heap entry, so sifting
// never touches the slab. A slot is occupied exactly while some handle
// carries its current generation — every release bumps it — so a
// generation match alone says "still pending".
type eventSlot struct {
	fn  func()
	gen uint32
}

// heapEntry is one queued event: its ordering key (at, seq) inline, plus
// the slot it refers to stamped with that slot's generation at scheduling
// time. An entry whose gen no longer matches its slot is a tombstone left
// by Cancel; RunUntil discards it when it surfaces.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

// before orders entries by (at, seq): a strict total order, since seq is
// unique, so equal-time events run FIFO and the pop sequence does not
// depend on the heap's shape.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32
	// heap is a 4-ary min-heap on (at, seq). It may hold tombstones of
	// canceled events; live counts the entries that are not.
	heap []heapEntry
	live int
	seq  uint64
	// executed counts callbacks run, for tests and runaway detection.
	executed uint64
	stopped  bool
}

// NewEngine returns an engine with the clock at zero and an empty heap.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of event callbacks run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled (canceled
// events are not counted, even while their tombstones sit in the heap).
func (e *Engine) Pending() int { return e.live }

// Schedule runs fn after delay (relative to Now). A negative delay is
// clamped to zero so causality is preserved. A non-finite delay panics,
// naming the call site: NaN would slip past the clamp (every comparison
// against NaN is false), enter the heap, and poison every ordering
// comparison, while ±Inf enters as an event that can never fire and turns
// subsequent time arithmetic into Inf/NaN — the same silent corruption.
// It returns a handle usable with Cancel.
func (e *Engine) Schedule(delay Time, fn func()) Event {
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
func (e *Engine) At(t Time, fn func()) Event {
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
		e.slots = append(e.slots, eventSlot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	e.heapPush(heapEntry{at: t, seq: e.seq, idx: idx, gen: s.gen})
	e.seq++
	e.live++
	return Event{idx: idx, gen: s.gen}
}

// panicNonFinite reports a NaN or ±Inf schedule time, attributing it to
// the model code that called Schedule/At (two frames up: panicNonFinite,
// then the engine method) so the offending arithmetic is findable without
// a heap dump.
func panicNonFinite(method string, t Time) {
	site := "unknown call site"
	if _, file, line, ok := runtime.Caller(2); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	panic(fmt.Sprintf("sim: %s(%v) from %s: a non-finite time would poison event ordering", method, t, site))
}

// Scheduled reports whether the event the handle refers to is still
// pending (not yet fired and not canceled).
func (e *Engine) Scheduled(ev Event) bool {
	return ev.Valid() && int(ev.idx) < len(e.slots) && e.slots[ev.idx].gen == ev.gen
}

// Cancel prevents a scheduled event from running. Canceling the zero
// Event, an event that already ran, or canceling twice, is a no-op.
//
// The slot is released at once; its heap entry stays behind as a
// tombstone that RunUntil skips. Once tombstones outnumber live events
// the heap is compacted, so a cancel-heavy caller (a Timeout.Reset loop)
// keeps heap storage within twice the pending count.
func (e *Engine) Cancel(ev Event) {
	if !e.Scheduled(ev) {
		return // zero handle, already fired, canceled, or slot reused
	}
	e.release(ev.idx)
	e.live--
	if len(e.heap)-e.live > e.live {
		e.compact()
	}
}

// release returns a slot to the free list and invalidates outstanding
// handles (and the slot's heap entry) by bumping the generation.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
}

// Stop makes the current Run return after the in-flight callback.
func (e *Engine) Stop() { e.stopped = true }

// Reset rewinds the engine to its initial state while keeping the event
// slab and heap storage, so a recycled engine schedules into
// already-allocated slots: the clock returns to zero, every pending event
// and tombstone is dropped, and all slots rejoin the free list. Each
// slot's generation is bumped, so handles held from before the reset can
// never cancel or match a post-reset event — stale cancels stay harmless
// no-ops, exactly as for fired events.
func (e *Engine) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		s.fn = nil
		s.gen++
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
	e.live = 0
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
}

// Run drains the event heap until empty or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil drains events with timestamps ≤ horizon. Events scheduled beyond
// the horizon remain pending; the clock is advanced to the horizon if the
// heap empties earlier than horizon only when horizon is finite.
func (e *Engine) RunUntil(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		top := &e.heap[0]
		s := &e.slots[top.idx]
		if s.gen != top.gen {
			e.heapPop() // tombstone of a canceled event
			continue
		}
		if top.at > horizon {
			break
		}
		fn, idx := s.fn, top.idx
		e.now = top.at
		e.heapPop()
		// Release before the callback so fn can recycle the slot; the
		// generation bump keeps any retained handle from matching it.
		e.release(idx)
		e.live--
		e.executed++
		fn()
	}
	if horizon != Forever && e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// The heap is 4-ary: the children of i are 4i+1 … 4i+4. Sifts move a
// hole instead of swapping, so each level costs one entry write.

func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// heapPop removes the top entry.
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// siftDown places x into the subtree rooted at hole i.
func (e *Engine) siftDown(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// compact drops every tombstone and re-heapifies the survivors. Pop order
// is unaffected: it follows the strict (at, seq) order, not the shape.
func (e *Engine) compact() {
	h := e.heap[:0]
	for _, x := range e.heap {
		if e.slots[x.idx].gen == x.gen {
			h = append(h, x)
		}
	}
	e.heap = h
	if n := len(h); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			e.siftDown(i, h[i])
		}
	}
}
