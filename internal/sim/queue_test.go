package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// queue is the engine surface the differential tests drive; both *Engine
// and the binary-heap *oracleEngine implement it.
type queue interface {
	At(t Time, fn func()) Event
	Schedule(delay Time, fn func()) Event
	Cancel(ev Event)
	Scheduled(ev Event) bool
	RunUntil(horizon Time) Time
	Stop()
	Reset()
	Now() Time
	Executed() uint64
	Pending() int
}

// queueDriver runs one queue through a script and records what it
// observes: the ids of fired events in firing order and every handle the
// queue handed out (stale ones included, so later cancels can hit them).
type queueDriver struct {
	q       queue
	fired   []int
	handles []Event
	nextID  int
}

// half is the time quantum of scripted events: coarse, so timestamps
// collide and the FIFO tie-break on equal times is exercised constantly.
const half = 500 * Millisecond

// add schedules an event whose callback is scripted by act: bits 0–1 pick
// the in-callback action (none, cancel a handle, schedule a child, Stop)
// and the remaining bits parameterize it.
func (d *queueDriver) add(absolute bool, t Time, act byte) {
	id := d.nextID
	d.nextID++
	fn := func() {
		d.fired = append(d.fired, id)
		arg := int(act >> 2)
		switch act & 3 {
		case 1:
			// May hit the firing event itself (already released), a
			// fired one, a canceled one, or a live one.
			if len(d.handles) > 0 {
				d.q.Cancel(d.handles[arg%len(d.handles)])
			}
		case 2:
			d.add(false, Time(arg%4)*half, 0)
		case 3:
			d.q.Stop()
		}
	}
	var ev Event
	if absolute {
		ev = d.q.At(t, fn)
	} else {
		ev = d.q.Schedule(t, fn)
	}
	d.handles = append(d.handles, ev)
}

// step applies one scripted operation, consuming bytes from script.
func (d *queueDriver) step(op, a, b byte) {
	switch op % 8 {
	case 0, 1:
		d.add(true, Time(a%8)*half, b)
	case 2:
		// Delays from -0.5 s (clamped to now) upward.
		d.add(false, Time(int(a%6)-1)*half, b)
	case 3:
		// Index len(handles) is the zero Event.
		if i := int(a) % (len(d.handles) + 1); i < len(d.handles) {
			d.q.Cancel(d.handles[i])
		} else {
			d.q.Cancel(Event{})
		}
	case 4:
		if a%5 == 0 {
			d.q.RunUntil(Forever)
		} else {
			// Horizons from before now to a few quanta past it.
			d.q.RunUntil(d.q.Now() + Time(int(a%8)-2)*half)
		}
	case 5:
		d.q.Stop()
	case 6:
		if a%4 == 0 {
			d.q.Reset()
		} else {
			d.q.RunUntil(Forever)
		}
	case 7:
		// Double cancel of the newest handle.
		if n := len(d.handles); n > 0 {
			d.q.Cancel(d.handles[n-1])
			d.q.Cancel(d.handles[n-1])
		}
	}
}

// diffQueues drives the engine and the oracle through the same script
// and reports the first observable difference, or "" if none.
func diffQueues(script []byte) string {
	eng := &queueDriver{q: NewEngine()}
	ora := &queueDriver{q: newOracleEngine()}
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		eng.step(op, a, b)
		ora.step(op, a, b)
		if msg := compareQueues(eng, ora); msg != "" {
			return fmt.Sprintf("after op %d (%d %d %d): %s", i/3, op, a, b, msg)
		}
	}
	// Drain what is left: the full firing order must agree too.
	eng.q.RunUntil(Forever)
	ora.q.RunUntil(Forever)
	if msg := compareQueues(eng, ora); msg != "" {
		return "after final drain: " + msg
	}
	return ""
}

func compareQueues(eng, ora *queueDriver) string {
	switch {
	case !reflect.DeepEqual(eng.fired, ora.fired):
		return fmt.Sprintf("fired %v, oracle %v", eng.fired, ora.fired)
	case eng.q.Now() != ora.q.Now():
		return fmt.Sprintf("Now %v, oracle %v", eng.q.Now(), ora.q.Now())
	case eng.q.Executed() != ora.q.Executed():
		return fmt.Sprintf("Executed %d, oracle %d", eng.q.Executed(), ora.q.Executed())
	case eng.q.Pending() != ora.q.Pending():
		return fmt.Sprintf("Pending %d, oracle %d", eng.q.Pending(), ora.q.Pending())
	case !reflect.DeepEqual(eng.handles, ora.handles):
		return fmt.Sprintf("handles %v, oracle %v", eng.handles, ora.handles)
	}
	for i, h := range eng.handles {
		if got, want := eng.q.Scheduled(h), ora.q.Scheduled(h); got != want {
			return fmt.Sprintf("Scheduled(handle %d) = %v, oracle %v", i, got, want)
		}
	}
	return ""
}

// Property: any script of At/Schedule (colliding timestamps), Cancel
// (stale, double, zero, in-callback), RunUntil, Stop and Reset yields the
// same firing order, clock, counters, handles and Scheduled answers on the
// engine as on the binary-heap oracle.
func TestEngineMatchesOracleProperty(t *testing.T) {
	f := func(script []byte) bool {
		if msg := diffQueues(script); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	// Scripts of up to 200 operations: long enough to build deep heaps,
	// pile up tombstones and trigger compactions.
	gen := func(args []reflect.Value, r *rand.Rand) {
		script := make([]byte, 3*r.Intn(201))
		r.Read(script)
		args[0] = reflect.ValueOf(script)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Values: gen}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineQueue is the coverage-guided form of the oracle property.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 4, 0, 0})
	f.Add([]byte{0, 3, 5, 1, 3, 9, 3, 0, 0, 4, 1, 0, 6, 0, 0, 0, 2, 2})
	f.Add([]byte{2, 0, 3, 2, 1, 6, 4, 3, 0, 7, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if msg := diffQueues(script); msg != "" {
			t.Fatal(msg)
		}
	})
}

// farFuture parks background events beyond everything a test runs.
const farFuture = 60 * Minute

// A restartable tail timer re-armed over and over (the RRC inactivity
// pattern) cancels an event per Reset; compaction must keep the heap
// within twice the live events plus a constant instead of accumulating
// one tombstone per Reset.
func TestEngineTimeoutResetLoopBoundsHeap(t *testing.T) {
	for _, background := range []int{0, 1, 100} {
		eng := NewEngine()
		for i := 0; i < background; i++ {
			eng.Schedule(farFuture+Time(i)*Second, func() {})
		}
		fired := 0
		to := NewTimeout(eng, 10*Second, func(Time) { fired++ })
		maxLen := 0
		for i := 0; i < 10000; i++ {
			to.Reset()
			if n := len(eng.heap); n > 2*eng.Pending()+1 {
				t.Fatalf("background %d, reset %d: heap holds %d entries for %d pending", background, i, n, eng.Pending())
			}
			maxLen = max(maxLen, len(eng.heap))
		}
		if limit := 2*(background+1) + 1; cap(eng.heap) > 2*limit {
			t.Fatalf("background %d: heap capacity %d (peak length %d) for %d pending", background, cap(eng.heap), maxLen, eng.Pending())
		}
		eng.RunUntil(farFuture - Second)
		if fired != 1 {
			t.Fatalf("background %d: timeout fired %d times, want 1", background, fired)
		}
	}
}

// Reset must drop tombstones along with live events.
func TestEngineResetDropsTombstones(t *testing.T) {
	eng := NewEngine()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, eng.Schedule(Time(i)*Second, func() {}))
	}
	for i := 0; i < 40; i++ { // below the compaction threshold
		eng.Cancel(evs[i*2])
	}
	if eng.Pending() != 60 || len(eng.heap) != 100 {
		t.Fatalf("before Reset: pending %d, heap %d; want 60 live among 100 entries", eng.Pending(), len(eng.heap))
	}
	eng.Reset()
	if eng.Pending() != 0 || len(eng.heap) != 0 {
		t.Fatalf("after Reset: pending %d, heap %d; want both 0", eng.Pending(), len(eng.heap))
	}
	ran := 0
	eng.Schedule(Second, func() { ran++ })
	if end := eng.Run(); ran != 1 || end != Second {
		t.Fatalf("after Reset: ran %d ending at %v, want 1 at 1s", ran, end)
	}
}

// A tombstone at the top of the heap must be skipped before the horizon
// check, and must not count toward Pending or Executed.
func TestEngineTombstoneAtTop(t *testing.T) {
	eng := NewEngine()
	first := eng.Schedule(Second, func() { t.Fatal("canceled event ran") })
	ran := false
	eng.Schedule(2*Second, func() { ran = true })
	for i := 0; i < 3; i++ { // keep the tombstone from being compacted away
		eng.Schedule(farFuture, func() {})
	}
	eng.Cancel(first)
	if eng.Scheduled(first) || eng.Pending() != 4 || len(eng.heap) != 5 {
		t.Fatalf("after Cancel: scheduled %v, pending %d, heap %d", eng.Scheduled(first), eng.Pending(), len(eng.heap))
	}
	if end := eng.RunUntil(1500 * Millisecond); end != 1500*Millisecond || eng.Executed() != 0 {
		t.Fatalf("RunUntil(1.5s) = %v with %d executed, want 1.5s and 0", end, eng.Executed())
	}
	if len(eng.heap) != 4 {
		t.Fatalf("tombstone not discarded at the top: heap %d", len(eng.heap))
	}
	eng.RunUntil(3 * Second)
	if !ran || eng.Executed() != 1 {
		t.Fatalf("ran %v, executed %d", ran, eng.Executed())
	}
}
