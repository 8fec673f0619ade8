// Package decode models the player's decode-ahead worker: it pulls coded
// frames in presentation order, runs each as a CPU job, and parks decoded
// frames in a bounded output queue ahead of the display. The bounded queue
// is the slack store the energy-aware DVFS policy exploits.
package decode

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// Hooks receives decoder lifecycle callbacks. The energy-aware governor
// implements this to observe demand and deadlines; all callbacks are
// optional-free (implementations may no-op).
//
// Governors must treat the frame's Cycles field as hidden (only the oracle
// reads it); measuredCycles in DecodeEnd is legitimate feedback, as a real
// integration derives it from thread CPU time × frequency.
type Hooks interface {
	// DecodeStart fires when a frame's decode job is issued, carrying the
	// frame's display deadline and the decoded-queue occupancy — the two
	// inputs of deadline- and slack-driven frequency selection.
	DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int)
	// DecodeEnd fires when a frame finishes decoding.
	DecodeEnd(now sim.Time, f video.Frame, deadline sim.Time, measuredCycles float64)
	// DecoderIdle fires when the decoder has nothing runnable (input
	// empty or output queue full) — the race-to-idle opportunity.
	DecoderIdle(now sim.Time)
}

// Submitter runs CPU jobs — a single core or a big.LITTLE cluster router.
type Submitter interface {
	// Submit enqueues the job for execution.
	Submit(j *cpu.Job) error
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

// DecodeStart implements Hooks.
func (NopHooks) DecodeStart(sim.Time, video.Frame, sim.Time, int, int) {}

// DecodeEnd implements Hooks.
func (NopHooks) DecodeEnd(sim.Time, video.Frame, sim.Time, float64) {}

// DecoderIdle implements Hooks.
func (NopHooks) DecoderIdle(sim.Time) {}

var _ Hooks = NopHooks{}

// Counts summarizes decoder work.
type Counts struct {
	// Decoded frames completed (including later-discarded ones).
	Decoded int
	// Discarded frames that finished decoding after their display slot
	// was already skipped (wasted work).
	Discarded int
	// Skipped frames dropped from the input before decoding because
	// their display slot had passed.
	Skipped int
}

// frameQueue is a FIFO of frames with a head cursor, so steady-state
// push/pop reuses one backing array instead of re-slicing capacity away.
type frameQueue struct {
	buf  []video.Frame
	head int
}

func (q *frameQueue) push(f video.Frame) { q.buf = append(q.buf, f) }
func (q *frameQueue) len() int           { return len(q.buf) - q.head }
func (q *frameQueue) front() video.Frame { return q.buf[q.head] }

func (q *frameQueue) pop() video.Frame {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 64 && q.head > len(q.buf)/2 {
		// Compact: slide the live window to the front so append reuses
		// the vacated capacity instead of growing the array forever.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

// Decoder is the decode-ahead worker. It is driven entirely by the event
// loop: Push feeds it, the display pops from it.
type Decoder struct {
	eng  *sim.Engine
	core Submitter
	cap  int

	pending  frameQueue
	ready    frameQueue
	inFlight bool

	// In-flight frame state: at most one decode job runs at a time, so
	// fields plus the pre-bound doneFn replace a per-frame closure.
	curFrame    video.Frame
	curDeadline sim.Time
	doneFn      func(now sim.Time)
	pool        cpu.JobPool

	discardBelow int
	deadlineOf   func(f video.Frame) sim.Time
	hooks        Hooks
	onReady      func(f video.Frame)

	counts Counts
	subErr error
}

// New returns a decoder with the given decoded-frame queue capacity.
// deadlineOf must return the frame's current scheduled display time; it is
// consulted at decode start so stalls that shift the timeline are
// reflected. hooks may be nil.
func New(eng *sim.Engine, core Submitter, queueCap int, deadlineOf func(f video.Frame) sim.Time, hooks Hooks) (*Decoder, error) {
	if queueCap < 1 {
		return nil, fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if deadlineOf == nil {
		return nil, fmt.Errorf("decode: deadlineOf is required")
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d := &Decoder{eng: eng, core: core, cap: queueCap, deadlineOf: deadlineOf, hooks: hooks}
	d.ready.buf = make([]video.Frame, 0, queueCap+1)
	d.doneFn = d.jobDone
	return d, nil
}

// Reset rewinds the decoder to the state New would construct for
// (queueCap, hooks), keeping its allocations: both frame-queue backing
// arrays, the job pool, and the pre-bound completion callback survive, as
// do the deadlineOf function and the OnReady callback wired at
// construction (they belong to the owning player, which outlives the
// reset). The owning engine and submitter must be reset alongside; an
// in-flight decode job is simply forgotten here (its pooled CPU job is
// returned by the core's own reset).
func (d *Decoder) Reset(queueCap int, hooks Hooks) error {
	if queueCap < 1 {
		return fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d.cap = queueCap
	d.hooks = hooks
	d.pending.buf = d.pending.buf[:0]
	d.pending.head = 0
	if cap(d.ready.buf) < queueCap+1 {
		d.ready.buf = make([]video.Frame, 0, queueCap+1)
	} else {
		d.ready.buf = d.ready.buf[:0]
	}
	d.ready.head = 0
	d.inFlight = false
	d.curFrame = video.Frame{}
	d.curDeadline = 0
	d.discardBelow = 0
	d.counts = Counts{}
	d.subErr = nil
	return nil
}

// OnReady registers a callback invoked when a frame lands in the decoded
// queue (the display uses it to wake from stalls).
func (d *Decoder) OnReady(fn func(f video.Frame)) { d.onReady = fn }

// Push appends a coded frame to the decode input in presentation order.
func (d *Decoder) Push(f video.Frame) {
	d.pending.push(f)
	d.maybeStart()
}

// ReadyLen returns the decoded-queue depth.
func (d *Decoder) ReadyLen() int { return d.ready.len() }

// PendingLen returns the coded input backlog.
func (d *Decoder) PendingLen() int { return d.pending.len() }

// Cap returns the decoded-queue capacity.
func (d *Decoder) Cap() int { return d.cap }

// Counts returns the work summary so far.
func (d *Decoder) Counts() Counts { return d.counts }

// Err returns the first CPU submission error, if any.
func (d *Decoder) Err() error { return d.subErr }

// Ready reports whether frame idx is at the head of the decoded queue.
func (d *Decoder) Ready(idx int) bool {
	return d.ready.len() > 0 && d.ready.front().Index == idx
}

// Pop removes and returns frame idx if it heads the decoded queue.
func (d *Decoder) Pop(idx int) (video.Frame, bool) {
	if !d.Ready(idx) {
		return video.Frame{}, false
	}
	f := d.ready.pop()
	d.maybeStart()
	return f, true
}

// DiscardBelow drops all frames with Index < idx: queued decoded frames
// are removed, pending frames are skipped before decoding, and an
// in-flight frame is discarded at completion. The display calls this when
// it skips late frames.
func (d *Decoder) DiscardBelow(idx int) {
	if idx <= d.discardBelow {
		return
	}
	d.discardBelow = idx
	w := 0
	for i := d.ready.head; i < len(d.ready.buf); i++ {
		f := d.ready.buf[i]
		if f.Index >= idx {
			d.ready.buf[w] = f
			w++
		} else {
			d.counts.Discarded++
		}
	}
	d.ready.buf = d.ready.buf[:w]
	d.ready.head = 0
	d.maybeStart()
}

func (d *Decoder) maybeStart() {
	if d.inFlight {
		return
	}
	// Skip input frames whose slot already passed.
	for d.pending.len() > 0 && d.pending.front().Index < d.discardBelow {
		d.pending.pop()
		d.counts.Skipped++
	}
	if d.pending.len() == 0 || d.ready.len() >= d.cap {
		d.hooks.DecoderIdle(d.eng.Now())
		return
	}
	f := d.pending.pop()
	d.inFlight = true
	d.curFrame = f
	d.curDeadline = d.deadlineOf(f)
	d.hooks.DecodeStart(d.eng.Now(), f, d.curDeadline, d.ready.len(), d.cap)
	j := d.pool.Get()
	j.Cycles = f.Cycles
	j.Priority = cpu.PrioDecode
	j.Tag = "decode"
	j.OnDone = d.doneFn
	if err := d.core.Submit(j); err != nil {
		d.inFlight = false
		if d.subErr == nil {
			d.subErr = err
		}
	}
}

// jobDone is the CPU completion callback for the single in-flight decode
// job issued by maybeStart.
func (d *Decoder) jobDone(now sim.Time) {
	f := d.curFrame
	d.inFlight = false
	d.counts.Decoded++
	d.hooks.DecodeEnd(now, f, d.curDeadline, f.Cycles)
	if f.Index < d.discardBelow {
		d.counts.Discarded++
	} else {
		d.ready.push(f)
		if d.onReady != nil {
			d.onReady(f)
		}
	}
	d.maybeStart()
}
