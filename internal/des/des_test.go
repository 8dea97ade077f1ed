package des

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// drain fires q's entries up to horizon the way the SAN simulator does,
// passing each fired activity and the clock to fire, and returns how many
// fired.
func drain(q *Queue, horizon float64, fire func(act int, now float64)) int {
	n := 0
	for {
		act, ok := q.Next(horizon)
		if !ok {
			return n
		}
		n++
		fire(act, q.Now())
	}
}

// firedOrder drains q to horizon and returns the activities in firing order.
func firedOrder(q *Queue, horizon float64) []int {
	var order []int
	drain(q, horizon, func(act int, _ float64) { order = append(order, act) })
	return order
}

// mustSchedule schedules act at t and fails the test on error.
func mustSchedule(t *testing.T, q *Queue, act int, at float64) {
	t.Helper()
	if err := q.Schedule(act, at); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScheduleAndRunOrder(t *testing.T) {
	q := NewQueue(6)
	mustSchedule(t, &q, 0, 5)
	mustSchedule(t, &q, 1, 1)
	mustSchedule(t, &q, 2, 3)
	// Three ties at t=2: insertion order decides, not activity index.
	mustSchedule(t, &q, 5, 2)
	mustSchedule(t, &q, 3, 2)
	mustSchedule(t, &q, 4, 2)
	if got, want := firedOrder(&q, 10), []int{1, 5, 3, 4, 2, 0}; !equalInts(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if q.Fired() != 6 || q.Now() != 5 {
		t.Errorf("Fired=%d Now=%v, want 6 and 5 (the last entry's time)", q.Fired(), q.Now())
	}
}

func TestRescheduleTakesNewSequence(t *testing.T) {
	q := NewQueue(3)
	mustSchedule(t, &q, 0, 2)
	mustSchedule(t, &q, 1, 2)
	// Rescheduling 0 at the same time moves it behind 1, exactly as a cancel
	// followed by a fresh schedule would.
	mustSchedule(t, &q, 0, 2)
	mustSchedule(t, &q, 2, 1)
	if got, want := firedOrder(&q, 10), []int{2, 1, 0}; !equalInts(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestScheduleErrors(t *testing.T) {
	q := NewQueue(2)
	if err := q.Schedule(0, math.NaN()); !errors.Is(err, ErrPastEvent) {
		t.Errorf("NaN time: err = %v, want ErrPastEvent", err)
	}
	mustSchedule(t, &q, 0, 5)
	drain(&q, 10, func(int, float64) {})
	if err := q.Schedule(1, 3); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past time: err = %v, want ErrPastEvent", err)
	}
	if _, _, ok := q.Pending(1); ok || q.Len() != 0 {
		t.Error("a refused entry was scheduled")
	}
	// Scheduling at the current instant is allowed.
	mustSchedule(t, &q, 1, q.Now())
}

func TestCancel(t *testing.T) {
	q := NewQueue(5)
	for act, at := range []float64{1, 2, 3, 4, 5} {
		mustSchedule(t, &q, act, at)
	}
	q.Cancel(0) // the head
	q.Cancel(2) // an interior entry
	q.Cancel(2) // canceling twice is a no-op
	q.Cancel(4) // the last entry in the heap slice
	q.Cancel(4)
	if _, _, ok := q.Pending(2); ok {
		t.Error("canceled activity still pending")
	}
	// Cancel removes the entry at once, so Len is exact.
	if q.Len() != 2 {
		t.Errorf("Len = %d after cancels, want 2", q.Len())
	}
	if got, want := firedOrder(&q, 10), []int{1, 3}; !equalInts(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestCancelFromHandler(t *testing.T) {
	q := NewQueue(3)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 5)
	mustSchedule(t, &q, 2, 6)
	var order []int
	drain(&q, 10, func(act int, now float64) {
		order = append(order, act)
		switch act {
		case 0:
			q.Cancel(1) // cancel a later entry from inside a completion
		case 2:
			mustSchedule(t, &q, 1, now) // schedule at the current instant
		}
	})
	if want := []int{0, 2, 1}; !equalInts(order, want) {
		t.Errorf("order = %v, want %v (the canceled entry must not fire at 5)", order, want)
	}
}

func TestScheduleAfterAndNestedScheduling(t *testing.T) {
	q := NewQueue(2)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 6)
	var times []float64
	count := 0
	drain(&q, 100, func(act int, now float64) {
		if act != 0 {
			return
		}
		times = append(times, now)
		count++
		if count < 5 {
			// The completed activity schedules itself again, 2 h later.
			mustSchedule(t, &q, 0, now+2)
		}
	})
	want := []float64{1, 3, 5, 7, 9}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
	if q.Fired() != 6 {
		t.Errorf("Fired = %d, want 6", q.Fired())
	}
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	q := NewQueue(2)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 20)
	if got := firedOrder(&q, 10); !equalInts(got, []int{0}) {
		t.Errorf("fired %v before the horizon, want [0] (an entry beyond the horizon must not fire)", got)
	}
	if at, _, ok := q.Pending(1); !ok || at != 20 {
		t.Errorf("entry beyond the horizon = %v, %v; want pending at 20", at, ok)
	}
	// Continue past the horizon.
	if got := firedOrder(&q, 30); !equalInts(got, []int{1}) {
		t.Errorf("fired %v after extending the horizon, want [1]", got)
	}
}

func TestRunWithInvalidHorizon(t *testing.T) {
	q := NewQueue(2)
	mustSchedule(t, &q, 0, 1)
	if got := firedOrder(&q, math.NaN()); len(got) != 0 {
		t.Errorf("NaN horizon fired %v", got)
	}
	drain(&q, 5, func(int, float64) {})
	mustSchedule(t, &q, 1, 40)
	if got := firedOrder(&q, 0.5); len(got) != 0 {
		t.Errorf("horizon before the clock fired %v", got)
	}
	if got := firedOrder(&q, 35); len(got) != 0 {
		t.Errorf("horizon before the next entry fired %v", got)
	}
}

func TestStop(t *testing.T) {
	q := NewQueue(2)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 2)
	if n := drain(&q, 10, func(int, float64) { q.Stop() }); n != 1 {
		t.Errorf("fired %d, want 1 (Stop halts the run)", n)
	}
	if _, _, ok := q.Pending(1); !ok {
		t.Error("Stop dropped a pending entry")
	}
}

// TestStepAndCounters checks that one Next call fires exactly the earliest
// entry, advancing the clock and the fired count, and that Next on an empty
// queue fires nothing.
func TestStepAndCounters(t *testing.T) {
	q := NewQueue(2)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 2)
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	act, ok := q.Next(math.Inf(1))
	if !ok || act != 0 {
		t.Fatalf("Next = %d, %v; want 0, true", act, ok)
	}
	if q.Now() != 1 || q.Fired() != 1 || q.Len() != 1 {
		t.Errorf("Now=%v Fired=%d Len=%d, want 1, 1, 1", q.Now(), q.Fired(), q.Len())
	}
	q.Next(math.Inf(1))
	if _, ok := q.Next(math.Inf(1)); ok {
		t.Error("Next fired with an empty queue")
	}
}

// TestReset checks that ResumeAt(0, 0) returns a used queue to the state of
// a new one: empty, clock and counters at zero, and the insertion sequence
// restarted, so ties break exactly as in a new queue.
func TestReset(t *testing.T) {
	q := NewQueue(3)
	mustSchedule(t, &q, 0, 5)
	mustSchedule(t, &q, 1, 8)
	mustSchedule(t, &q, 2, 9)
	drain(&q, 8, func(int, float64) {})
	q.Stop()
	q.ResumeAt(0, 0)
	if q.Now() != 0 || q.Len() != 0 || q.Fired() != 0 {
		t.Errorf("reset left state: Now=%v Len=%d Fired=%d", q.Now(), q.Len(), q.Fired())
	}
	for act := 0; act < 3; act++ {
		if _, _, ok := q.Pending(act); ok {
			t.Errorf("activity %d still pending after reset", act)
		}
	}
	fresh := NewQueue(3)
	for _, r := range []*Queue{&q, &fresh} {
		mustSchedule(t, r, 2, 1)
		mustSchedule(t, r, 0, 1)
		mustSchedule(t, r, 1, 1)
	}
	for act := 0; act < 3; act++ {
		_, seq, _ := q.Pending(act)
		_, freshSeq, _ := fresh.Pending(act)
		if seq != freshSeq {
			t.Errorf("activity %d: sequence %d after reset, %d in a new queue", act, seq, freshSeq)
		}
	}
	if got, want := firedOrder(&q, 2), firedOrder(&fresh, 2); !equalInts(got, want) {
		t.Errorf("reset queue fired %v, new queue %v", got, want)
	}
}

func TestResumeAt(t *testing.T) {
	q := NewQueue(3)
	mustSchedule(t, &q, 0, 1)
	mustSchedule(t, &q, 1, 2)
	q.ResumeAt(5, 42)
	if q.Now() != 5 || q.Fired() != 42 || q.Len() != 0 {
		t.Fatalf("after ResumeAt: Now=%v Fired=%d Len=%d", q.Now(), q.Fired(), q.Len())
	}
	// Entries are re-scheduled at absolute times after the restored clock.
	mustSchedule(t, &q, 2, 7)
	if err := q.Schedule(0, 4); !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling before the restored clock: err = %v, want ErrPastEvent", err)
	}
	var at float64
	drain(&q, 10, func(_ int, now float64) { at = now })
	if at != 7 || q.Fired() != 43 {
		t.Errorf("fired at %v with count %d, want 7 and 43", at, q.Fired())
	}
}

// Property: entries always fire in non-decreasing time order, all of them,
// regardless of the insertion order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		var valid []float64
		for _, r := range raw {
			v := math.Abs(r)
			if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
				continue
			}
			valid = append(valid, v)
		}
		q := NewQueue(len(valid))
		for act, v := range valid {
			if q.Schedule(act, v) != nil {
				return false
			}
		}
		var fired []float64
		drain(&q, math.Inf(1), func(_ int, now float64) { fired = append(fired, now) })
		return len(fired) == len(valid) && sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesSort checks random schedule, reschedule and cancel sequences
// against a reference: the surviving entries sorted by (time, insertion
// sequence).
func TestMatchesSort(t *testing.T) {
	stream := rng.NewStream(7, "event-queue")
	type ref struct {
		time float64
		seq  int
	}
	for trial := 0; trial < 200; trial++ {
		acts := 1 + stream.Intn(40)
		q := NewQueue(acts)
		want := map[int]ref{}
		for op := 0; op < 3*acts; op++ {
			act := stream.Intn(acts)
			if stream.Float64() < 0.2 {
				q.Cancel(act)
				delete(want, act)
				continue
			}
			// Coarse times make ties common.
			at := float64(stream.Intn(10))
			mustSchedule(t, &q, act, at)
			want[act] = ref{time: at, seq: op}
		}
		var order []int
		for act := range want {
			order = append(order, act)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := want[order[i]], want[order[j]]
			return a.time < b.time || (a.time == b.time && a.seq < b.seq)
		})
		if got := firedOrder(&q, math.Inf(1)); !equalInts(got, order) {
			t.Fatalf("trial %d: fired %v, want %v", trial, got, order)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	q := NewQueue(1000)
	for i := 0; i < b.N; i++ {
		q.ResumeAt(0, 0)
		for act := 0; act < 1000; act++ {
			q.Schedule(act, float64(act%97))
		}
		drain(&q, 1000, func(int, float64) {})
	}
}
