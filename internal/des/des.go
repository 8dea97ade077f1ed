// Package des is the discrete-event core of the stochastic-activity-network
// simulator: a future-event list and simulation clock keyed by activity.
//
// Every timed activity has at most one pending completion, so the list is a
// binary min-heap of inline {time, seq, activity} entries plus the heap
// position of each activity's entry. Entries are ordered by completion time,
// then by insertion sequence, which makes the firing order a total order
// independent of the heap's layout. Scheduling, rescheduling, canceling and
// firing move entries within one slice, so a replication allocates nothing
// once the heap has grown to the model's number of concurrently pending
// activities.
//
// Time is a float64 in hours, consistent with the rest of the repository.
package des

import (
	"errors"
	"fmt"
)

// ErrPastEvent is returned when an entry is scheduled before the clock or
// at a NaN time.
var ErrPastEvent = errors.New("des: cannot schedule an event in the past")

// Queue is the future-event list and clock of one replication. It is not
// safe for concurrent use; each simulator owns one and reuses it across
// replications through ResumeAt.
type Queue struct {
	heap []entry
	pos  []int32 // heap index of each activity's pending entry, -1 if none

	seq     uint64  // insertion sequence of the next scheduled entry
	now     float64 // simulation clock: the time of the last fired entry
	fired   uint64  // entries fired so far
	stopped bool    // set by Stop; Next then fires nothing more
}

// entry is one pending activity completion.
type entry struct {
	time float64
	seq  uint64
	act  int32
}

// before is the firing order: time first, then insertion sequence.
func (e entry) before(o entry) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

// NewQueue returns an empty queue with the clock at 0 for a model with the
// given number of activities, with room for all of them to be pending at
// once.
func NewQueue(activities int) Queue {
	pos := make([]int32, activities)
	for i := range pos {
		pos[i] = -1
	}
	return Queue{heap: make([]entry, 0, activities), pos: pos}
}

// Now returns the simulation clock: the time of the last fired entry.
func (q *Queue) Now() float64 { return q.now }

// Fired returns the number of entries fired so far.
func (q *Queue) Fired() uint64 { return q.fired }

// Len returns the number of pending entries.
func (q *Queue) Len() int { return len(q.heap) }

// ResumeAt drops every pending entry and restarts the clock at now with
// fired completions already counted: now = 0, fired = 0 for a new
// replication, a snapshot's time and event count to continue one. The
// insertion sequence restarts too, so a reused queue orders entries exactly
// as a new one would. Clearing costs O(pending), not O(activities).
func (q *Queue) ResumeAt(now float64, fired uint64) {
	for _, e := range q.heap {
		q.pos[e.act] = -1
	}
	q.heap = q.heap[:0]
	q.seq = 0
	q.now = now
	q.fired = fired
	q.stopped = false
}

// Schedule sets act's pending completion to time t, replacing any entry it
// already has; the entry takes the next insertion sequence either way, as a
// cancel followed by a fresh schedule would. A NaN time or one before the
// clock is refused with ErrPastEvent and leaves the queue unchanged.
func (q *Queue) Schedule(act int, t float64) error {
	if !(t >= q.now) {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, q.now)
	}
	e := entry{time: t, seq: q.seq, act: int32(act)}
	q.seq++
	if i := q.pos[act]; i >= 0 {
		q.heap[i] = e
		q.fix(int(i))
		return nil
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
	return nil
}

// Cancel removes act's pending completion, if it has one.
func (q *Queue) Cancel(act int) {
	i := q.pos[act]
	if i < 0 {
		return
	}
	q.pos[act] = -1
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if int(i) != last {
		q.heap[i] = moved
		q.pos[moved.act] = i
		q.fix(int(i))
	}
}

// Pending returns the time and insertion sequence of act's pending
// completion, if it has one.
func (q *Queue) Pending(act int) (t float64, seq uint64, ok bool) {
	if i := q.pos[act]; i >= 0 {
		return q.heap[i].time, q.heap[i].seq, true
	}
	return 0, 0, false
}

// Stop makes Next fire nothing more until the queue is resumed.
func (q *Queue) Stop() { q.stopped = true }

// Next removes the earliest pending entry if it completes at or before
// horizon and the queue is not stopped, advances the clock to its time,
// counts it as fired and returns its activity. A NaN horizon fires nothing.
func (q *Queue) Next(horizon float64) (act int, ok bool) {
	if q.stopped || len(q.heap) == 0 || !(q.heap[0].time <= horizon) {
		return 0, false
	}
	top := q.heap[0]
	q.pos[top.act] = -1
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.heap[0] = moved
		q.pos[moved.act] = 0
		q.down(0)
	}
	q.now = top.time
	q.fired++
	return int(top.act), true
}

// fix restores the heap order after the entry at i changed.
func (q *Queue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *Queue) up(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		q.pos[h[i].act] = int32(i)
		i = parent
	}
	h[i] = e
	q.pos[e.act] = int32(i)
}

// down sifts the entry at i towards the leaves and reports whether it moved.
func (q *Queue) down(i int) bool {
	h := q.heap
	e := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		q.pos[h[i].act] = int32(i)
		i = child
	}
	h[i] = e
	q.pos[e.act] = int32(i)
	return i > start
}
