package sim

import (
	"math/bits"
	"time"
)

// radixQueue is the engine's priority queue: a radix heap keyed on the
// deadline. It relies on the queue being monotone — no event is ever
// scheduled before the deadline of the last event popped, because the
// clock never runs behind it and Schedule clamps to the clock — so each
// slot sits in the bucket named by the highest bit in which its deadline
// differs from last. Every slot in bucket b is earlier than every slot in
// bucket b+1, and popping refills the front by redistributing the lowest
// non-empty bucket around its minimum, so a slot only ever moves toward
// the front, at most once per bit. Slots due exactly at last wait in a
// binary heap ordered by (key, seq): k events at one instant cost
// O(k log k), and pop order is exactly the (at, key, seq) order of the
// contract in heapSlot.
//
// Cancelled slots stay where they are until they reach the front, a
// bucket scan meets them, or the engine compacts the queue.
type radixQueue struct {
	// last is the front deadline: every queued slot is due at or after it.
	last time.Duration
	// front holds the slots due exactly at last, a binary heap ordered by
	// (key, seq).
	front []heapSlot
	// buckets[b] holds, in no order, the slots whose deadline first
	// differs from last at bit b.
	buckets [64][]heapSlot
	// low[b] is the earliest deadline in buckets[b], cancelled slots
	// included, so a lower bound on its live slots.
	low   [64]time.Duration
	full  uint64 // bit b set while buckets[b] is non-empty
	count int    // queued slots, cancelled ones included
	peak  int    // largest count since the last sweep
}

// keepSlots is the capacity a bucket may keep however empty it is.
const keepSlots = 64

// frontLess orders slots due at the same instant.
func frontLess(a, b heapSlot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// place files s into the front heap or its bucket.
func (q *radixQueue) place(s heapSlot) {
	x := uint64(s.at ^ q.last)
	if x == 0 {
		q.pushFront(s)
		return
	}
	b := bits.Len64(x) - 1
	bit := uint64(1) << b
	if q.full&bit == 0 {
		q.full |= bit
		q.low[b] = s.at
	} else if s.at < q.low[b] {
		q.low[b] = s.at
	}
	q.buckets[b] = append(q.buckets[b], s)
}

func (q *radixQueue) pushFront(s heapSlot) {
	h := append(q.front, s)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !frontLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.front = h
}

// popFront removes the front heap's minimum.
func (q *radixQueue) popFront() heapSlot {
	h := q.front
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.front = h
	siftFront(h, 0)
	q.count--
	if q.count*2 <= q.peak {
		q.sweep()
	}
	return top
}

func siftFront(h []heapSlot, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && frontLess(h[c+1], h[c]) {
			c++
		}
		if !frontLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sweep bounds the queue's footprint after a burst: a bucket whose
// capacity exceeds both keepSlots and four times the queued count is
// reallocated at twice its length. The engine calls it whenever the count
// has halved since the last sweep, so the cost is amortized over the pops
// that shrank the queue, and a steady queue never reallocates.
func (q *radixQueue) sweep() {
	limit := 4 * q.count
	if c := cap(q.front); c > keepSlots && c > limit {
		q.front = shrunk(q.front)
	}
	for b := range q.buckets {
		if c := cap(q.buckets[b]); c > keepSlots && c > limit {
			q.buckets[b] = shrunk(q.buckets[b])
		}
	}
	q.peak = q.count
}

func shrunk(s []heapSlot) []heapSlot {
	if len(s) == 0 {
		return nil
	}
	return append(make([]heapSlot, 0, 2*len(s)), s...)
}

func (e *Engine) push(s heapSlot) {
	q := &e.queue
	q.place(s)
	if q.count++; q.count > q.peak {
		q.peak = q.count
	}
}

// drop discards a cancelled slot found in the queue.
func (e *Engine) drop(idx uint32) {
	e.stale--
	e.queue.count--
	e.recycle(idx)
}

// dropCancelledFront pops cancelled slots off the front heap and reports
// whether a live slot is left on top.
func (e *Engine) dropCancelledFront() bool {
	q := &e.queue
	for len(q.front) > 0 {
		if !e.events[q.front[0].idx].cancelled {
			return true
		}
		e.stale--
		e.recycle(q.popFront().idx)
	}
	return false
}

// liveMin drops the cancelled slots of bucket b and returns the earliest
// deadline left, false if none is.
func (e *Engine) liveMin(b int) (time.Duration, bool) {
	q := &e.queue
	bk := q.buckets[b]
	var m time.Duration
	for i := 0; i < len(bk); {
		s := bk[i]
		if e.events[s.idx].cancelled {
			e.drop(s.idx)
			bk[i] = bk[len(bk)-1]
			bk = bk[:len(bk)-1]
			continue
		}
		if i == 0 || s.at < m {
			m = s.at
		}
		i++
	}
	q.buckets[b] = bk
	if len(bk) == 0 {
		q.full &^= 1 << b
		return 0, false
	}
	q.low[b] = m
	return m, true
}

// settle brings the earliest live slot to the top of the front heap if it
// is due at or before limit, and reports whether it did. It advances the
// front only to a deadline at or before limit, and Run leaves the clock
// at limit or later, so last never passes the clock and later schedules
// stay monotone.
func (e *Engine) settle(limit time.Duration) bool {
	q := &e.queue
	for {
		if e.dropCancelledFront() {
			return q.last <= limit
		}
		if q.full == 0 {
			// Empty: restart the radix at the clock.
			q.last = e.now
			return false
		}
		b := bits.TrailingZeros64(q.full)
		m := q.low[b]
		if m > limit {
			return false
		}
		// Redistribute bucket b around its earliest deadline, cancelled
		// slots included, without visiting the slab: with last = m every
		// slot of b lands in a lower bucket or the front, and the buckets
		// above b keep their indexes (m agrees with the old last on every
		// bit above b). Cancelled slots are dropped when they reach the
		// front.
		q.last = m
		bk := q.buckets[b]
		q.buckets[b] = bk[:0]
		q.full &^= 1 << b
		for _, s := range bk {
			q.place(s)
		}
	}
}

// NextAt reports the time of the earliest live pending event; ok is false
// when no live events are pending. It fires nothing, moves neither the
// clock nor the queue front, and so leaves every later Schedule valid:
// the shard barrier relies on that. Cancelled slots it meets are
// discarded.
func (e *Engine) NextAt() (at time.Duration, ok bool) {
	q := &e.queue
	if e.dropCancelledFront() {
		return q.last, true
	}
	for q.full != 0 {
		if m, ok := e.liveMin(bits.TrailingZeros64(q.full)); ok {
			return m, true
		}
	}
	return 0, false
}

// compact rebuilds the queue without the cancelled slots, freeing them.
// Slots keep their buckets, so pop order — and therefore simulation
// determinism — is unaffected.
func (e *Engine) compact() {
	q := &e.queue
	q.front = e.keepLive(q.front)
	for i := len(q.front)/2 - 1; i >= 0; i-- {
		siftFront(q.front, i)
	}
	for m := q.full; m != 0; m &= m - 1 {
		e.liveMin(bits.TrailingZeros64(m))
	}
	e.stale = 0
	q.sweep()
}

// keepLive filters the cancelled slots out of s in place.
func (e *Engine) keepLive(s []heapSlot) []heapSlot {
	kept := s[:0]
	for _, sl := range s {
		if e.events[sl.idx].cancelled {
			e.drop(sl.idx)
			continue
		}
		kept = append(kept, sl)
	}
	return kept
}
