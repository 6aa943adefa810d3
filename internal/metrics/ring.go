package metrics

import "sync/atomic"

// ringShards spreads a Ring over independently advancing shards so
// concurrent writers (delivery shard workers, GDS and transport handlers)
// never contend on one counter. Power of two for cheap masking.
const ringShards = 8

// Ring is a lock-free sharded drop-oldest ring of *T: bounded memory, and a
// reader never blocks a writer. Writers pick a shard from a caller-supplied
// key and swap the value into the shard's next slot; Snapshot walks the
// slots with atomic loads. Both the span collector (internal/trace) and the
// per-component log flight rings (internal/logging) are this type.
type Ring[T any] struct {
	shards [ringShards]ringShard[T]
	perCap int
}

type ringShard[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	// pad out the hot counter so neighbouring shards do not false-share.
	_ [48]byte
}

// Init sizes the ring to hold about capacity values (rounded up to a
// multiple of the shard count). Call it once, before the first Add.
func (r *Ring[T]) Init(capacity int) {
	r.perCap = (capacity + ringShards - 1) / ringShards
	for i := range r.shards {
		r.shards[i].slots = make([]atomic.Pointer[T], r.perCap)
	}
}

// Add stores v in the shard key selects, reporting whether an older value
// was displaced. Sequential keys spread evenly, so a snapshot of them holds
// a contiguous recent window.
func (r *Ring[T]) Add(v *T, key uint64) (displaced bool) {
	sh := &r.shards[key&(ringShards-1)]
	idx := (sh.next.Add(1) - 1) % uint64(len(sh.slots))
	return sh.slots[idx].Swap(v) != nil
}

// Occupancy reports the number of values currently held.
func (r *Ring[T]) Occupancy() int64 {
	var n int64
	for i := range r.shards {
		written := int64(r.shards[i].next.Load())
		if slots := int64(len(r.shards[i].slots)); written > slots {
			written = slots
		}
		n += written
	}
	return n
}

// Capacity reports the ring's total slot count.
func (r *Ring[T]) Capacity() int { return r.perCap * ringShards }

// Snapshot copies out every retained value, in no particular order. Values
// are shared, not copied: callers must treat them as read-only.
func (r *Ring[T]) Snapshot() []*T {
	out := make([]*T, 0, r.Occupancy())
	for i := range r.shards {
		for j := range r.shards[i].slots {
			if v := r.shards[i].slots[j].Load(); v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}
