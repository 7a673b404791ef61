package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// The calendar queue: the near half of the engine's two-level scheduler.
// Events less than one horizon ahead of the clock — direct placements
// under wheelCutoff, and wheel drains and fallbacks — live in a ring of
// calBuckets fixed-width time buckets. A bucket is a circular doubly
// linked list of nodes in one pooled slab, so appending and canceling are
// O(1) and steady-state scheduling allocates nothing. A two-level
// occupancy bitmap finds the first non-empty bucket at or after the
// clock's bucket in a few TrailingZeros64 steps.
//
// Buckets are kept unsorted: an append that lands out of (t, seq) order
// only marks its bucket dirty. When the scan reaches a bucket (making it
// the minimum bucket) a dirty bucket is sorted once, and from then on
// inserts into it go in order, so its head is the calendar's minimum and
// is cached in min. An insert that would have to walk far is appended
// instead and demotes the bucket back to dirty, so an insert costs at
// most a bounded walk, plus one re-sort of its bucket when the scan next
// reaches it. Because (t, seq) is a strict total order, the pop
// order — and every simulation artifact — is the one a single ordered
// queue would produce. See DESIGN.md §8 and §13.
//
// Horizon invariant: every resident satisfies
//
//	now ≤ t  and  t>>calShift − now>>calShift < calBuckets,
//
// so residents occupy distinct absolute buckets within one turn of the
// ring and a circular scan from the clock's bucket cannot alias. Direct
// placements are under wheelCutoff ahead, and wheel drains and fallbacks
// under wheelCutoff+wheelGran ahead (the idle advance moves the clock to
// each tick before draining it), which the constant below bounds. calPush
// panics if the invariant is ever broken, which only an engine bug can do.
const (
	calShift   = 7
	calWidth   = Time(1) << calShift // bucket width: 128ns
	calBuckets = 2048
	calMask    = calBuckets - 1
	calSpan    = calBuckets * calWidth // ~262µs
	calWords   = calBuckets / 64

	// calCountingMin is the bucket size above which sortBucket runs its
	// counting pass; insertion sort alone is cheaper below it.
	calCountingMin = 32
	// calWalkMax bounds an ordered insert's walk through the minimum
	// bucket (see calPush).
	calWalkMax = 8
)

// Compile-time horizon check: a resident under wheelCutoff+wheelGran
// ahead of the clock spans fewer than calBuckets bucket boundaries.
const _ = uint64(calSpan - calWidth - (wheelCutoff + wheelGran))

// calNode is one slab entry. Live nodes sit on their bucket's circular
// list; free nodes are chained through next. Index 0 is never used, so 0
// means "none" in head, min and free.
type calNode struct {
	ev         event
	next, prev int32
}

// calKey is a bucket entry's sort key, copied out so a dirty bucket sorts
// over contiguous memory instead of chasing list links.
type calKey struct {
	t   Time
	seq uint64
	n   int32
}

// calendar holds the near-term events. Its fixed footprint is ~8.5 KB:
// the bucket heads plus two bitmaps.
type calendar struct {
	head   [calBuckets]int32 // first node of each bucket's list, 0 if empty
	occ    [calWords]uint64  // bucket b is non-empty
	occSum uint64            // occ[w] != 0
	dirty  [calWords]uint64  // bucket b may be out of (t, seq) order
	min    int32             // head of the sorted minimum bucket, 0 if not yet found
	minBn  int64             // absolute bucket number (t>>calShift) of min
	free   int32             // free-list head
	count  int               // resident events
	nodes  []calNode
	keys   []calKey // sort scratch
	out    []calKey // counting-pass output, swapped with keys
}

// calPush files ev into its bucket: in order if that is the minimum
// bucket, at the tail otherwise.
func (e *Engine) calPush(ev event) {
	c := &e.cal
	bn := int64(ev.t) >> calShift
	if uint64(bn-int64(e.now)>>calShift) >= calBuckets {
		panic(fmt.Sprintf("sim: calendar horizon broken: event at %v, clock at %v", ev.t, e.now))
	}
	n := c.free
	if n != 0 {
		c.free = c.nodes[n].next
	} else {
		if len(c.nodes) == 0 {
			c.nodes = append(c.nodes, calNode{}) // index 0: the nil node
		}
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, calNode{})
	}
	nodes := c.nodes
	nd := &nodes[n]
	// Field by field: a whole-struct copy reads ev back with 16-byte loads
	// that cannot forward from the 8-byte stores that built it, and that
	// stall shows on every push.
	nd.ev.t, nd.ev.seq, nd.ev.p, nd.ev.fn, nd.ev.tmr = ev.t, ev.seq, ev.p, ev.fn, ev.tmr
	if ev.tmr != nil {
		ev.tmr.loc = timerInCal
		ev.tmr.pos = int(n)
	}
	c.count++
	if c.count > e.stats.CalendarPeak {
		e.stats.CalendarPeak = c.count
	}

	s := bn & calMask
	h := c.head[s]
	switch {
	case h == 0:
		nd.next, nd.prev = n, n
		c.head[s] = n
		c.occ[s>>6] |= 1 << (s & 63)
		c.occSum |= 1 << (s >> 6)
		// ev is the new minimum if it is the only resident, or if it lands
		// before the minimum bucket (any such bucket is empty).
		if c.count == 1 || c.min != 0 && bn < c.minBn {
			c.min, c.minBn = n, bn
		}
	case c.min != 0 && bn == c.minBn:
		// The minimum bucket is sorted: walk back from the tail to the
		// last entry not after ev. New events usually carry the largest
		// seq and a late instant, so the walk is short; a longer one
		// would make filling a dense bucket quadratic, so past
		// calWalkMax entries ev is appended instead and the bucket is
		// demoted to dirty, to be sorted when the scan next reaches it.
		p := nodes[h].prev
		for k := 0; eventLess(&ev, &nodes[p].ev); k++ {
			if p == h {
				// ev precedes every entry: it becomes head and minimum.
				c.link(n, nodes[h].prev)
				c.head[s], c.min = n, n
				return
			}
			if k == calWalkMax {
				c.link(n, nodes[h].prev)
				c.dirty[s>>6] |= 1 << (s & 63)
				c.min = 0
				return
			}
			p = nodes[p].prev
		}
		c.link(n, p)
	default:
		tail := nodes[h].prev
		if eventLess(&ev, &nodes[tail].ev) {
			c.dirty[s>>6] |= 1 << (s & 63)
		}
		c.link(n, tail)
	}
}

// link splices node n into a list right after node p.
func (c *calendar) link(n, p int32) {
	nodes := c.nodes
	q := nodes[p].next
	nodes[n].prev, nodes[n].next = p, q
	nodes[p].next = n
	nodes[q].prev = n
}

// calMin returns the earliest resident event; the calendar must be
// non-empty. The pointer is valid until the next calPush.
func (e *Engine) calMin() *event {
	c := &e.cal
	if c.min == 0 {
		e.calFindMin()
	}
	return &c.nodes[c.min].ev
}

// calFindMin scans from the clock's bucket to the first non-empty one,
// sorts it if dirty and caches its head as the minimum.
func (e *Engine) calFindMin() {
	c := &e.cal
	s := int64(e.now) >> calShift & calMask
	w := s >> 6
	var b int64
	if m := c.occ[w] &^ (1<<(s&63) - 1); m != 0 {
		b = w<<6 | int64(bits.TrailingZeros64(m))
	} else {
		// The next non-empty word after w, else wrap around to the first.
		m := c.occSum &^ (1<<(w+1) - 1)
		if m == 0 {
			m = c.occSum
		}
		w = int64(bits.TrailingZeros64(m))
		b = w<<6 | int64(bits.TrailingZeros64(c.occ[w]))
	}
	if bit := uint64(1) << (b & 63); c.dirty[w]&bit != 0 {
		c.dirty[w] &^= bit
		c.sortBucket(b)
	}
	c.min = c.head[b]
	c.minBn = int64(c.nodes[c.min].ev.t) >> calShift
}

// sortBucket relinks bucket b's list in (t, seq) order. Instants in one
// bucket differ only in their low calShift bits, so a stable counting
// pass over those bits orders a large bucket by t in O(n); the insertion
// pass then only has to fix equal-t runs out of seq order (wheel drains
// append events older than the bucket's other residents), and on its own
// sorts small buckets.
func (c *calendar) sortBucket(b int64) {
	nodes := c.nodes
	h := c.head[b]
	keys := c.keys[:0]
	for n := h; ; {
		keys = append(keys, calKey{nodes[n].ev.t, nodes[n].ev.seq, n})
		if n = nodes[n].next; n == h {
			break
		}
	}
	if len(keys) > calCountingMin {
		var cnt [calWidth]int32
		for _, k := range keys {
			cnt[k.t&(calWidth-1)]++
		}
		var sum int32
		for i, v := range cnt {
			cnt[i] = sum
			sum += v
		}
		out := slices.Grow(c.out[:0], len(keys))[:len(keys)]
		for _, k := range keys {
			o := k.t & (calWidth - 1)
			out[cnt[o]] = k
			cnt[o]++
		}
		keys, c.out = out, keys
	}
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && (k.t < keys[j-1].t || k.t == keys[j-1].t && k.seq < keys[j-1].seq); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	prev := keys[len(keys)-1].n
	for _, k := range keys {
		nodes[k.n].prev = prev
		nodes[prev].next = k.n
		prev = k.n
	}
	c.head[b] = keys[0].n
	c.keys = keys
}

// calPop removes and returns the minimum event; calMin must have been
// called since the last change to the calendar.
func (e *Engine) calPop() event {
	c := &e.cal
	n := c.min
	ev := c.nodes[n].ev
	c.remove(n)
	return ev
}

// remove unlinks node n (keeping its bucket's order), releases the
// event's references and returns the node to the free list.
func (c *calendar) remove(n int32) {
	nodes := c.nodes
	nd := &nodes[n]
	s := int64(nd.ev.t) >> calShift & calMask
	if nd.next == n {
		c.head[s] = 0
		c.occ[s>>6] &^= 1 << (s & 63)
		c.dirty[s>>6] &^= 1 << (s & 63)
		if c.occ[s>>6] == 0 {
			c.occSum &^= 1 << (s >> 6)
		}
		if c.min == n {
			c.min = 0
		}
	} else {
		nodes[nd.prev].next = nd.next
		nodes[nd.next].prev = nd.prev
		if c.head[s] == n {
			c.head[s] = nd.next
			if c.min == n {
				c.min = nd.next
			}
		}
	}
	nd.ev = event{}
	nd.next, nd.prev = c.free, 0
	c.free = n
	if c.count--; c.count == 0 {
		// Every node is free and zeroed: restart allocation at the slab's
		// base, so the next burst of events fills it in address order.
		c.nodes, c.free = c.nodes[:1], 0
	}
}

// calAppendPending appends every calendar-resident event to evs (for
// checkpoint fingerprints); order is restored by the caller's sort.
func (e *Engine) calAppendPending(evs []event) []event {
	for i := 1; i < len(e.cal.nodes); i++ {
		if ev := e.cal.nodes[i].ev; ev.p != nil || ev.fn != nil {
			evs = append(evs, ev)
		}
	}
	return evs
}
