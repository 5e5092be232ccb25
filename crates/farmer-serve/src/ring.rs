//! A fixed-capacity lock-free MPSC ring buffer — the ingest feed of the
//! serving tier.
//!
//! The streaming miner's own channels are `std::sync::mpsc` bounded
//! channels: fine between the router and its shard workers, but the
//! serving tier's *front door* takes events from many producer threads at
//! once, and a mutex-guarded queue there would put every producer behind
//! one lock. This ring is the classic bounded MPMC queue (per-slot
//! sequence numbers, Dmitry Vyukov's design) specialised to many
//! producers / one consumer:
//!
//! * **Fixed capacity, allocated once.** `capacity` slots (rounded up to
//!   a power of two) live in one boxed slab; no allocation ever happens
//!   on push or pop, and a full ring pushes back explicitly
//!   ([`Producer::try_push`] returns the value) instead of growing.
//! * **Lock-free producers.** A push claims a slot with one CAS on the
//!   enqueue cursor and publishes it with one release store of the slot's
//!   sequence number. Producers never block each other beyond CAS
//!   retries; a stalled producer cannot wedge the queue for more than its
//!   one claimed slot.
//! * **Wait-free consumer.** The single consumer owns the dequeue cursor
//!   exclusively ([`Consumer`] is not `Clone` and pops through `&mut
//!   self`), so a pop is two atomic loads, a value move, and one release
//!   store — no CAS, no retry loop.
//! * **FIFO.** Slots are claimed and consumed in cursor order: the
//!   consumer observes every producer's items in that producer's push
//!   order, and the global order is the order in which pushes claimed
//!   slots. Nothing is lost or reordered across wrap-around — the
//!   property `tests/ring_oracle.rs` pins against a `VecDeque` oracle.
//!
//! Backpressure accounting (spin, then park, when full) is the serving
//! tier's job (`crate::serve`); the ring itself never waits.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pad the cursors to their own cache lines so producers hammering the
/// enqueue cursor do not false-share with the consumer's dequeue cursor.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Vyukov sequence number: `pos` when free for the push at cursor
    /// `pos`, `pos + 1` when holding that push's value, `pos + capacity`
    /// when free for the next lap.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue: CachePadded<AtomicUsize>,
    dequeue: CachePadded<AtomicUsize>,
}

// SAFETY: values cross threads through the slots; the per-slot sequence
// protocol makes every `value` access exclusive.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared access is mediated entirely by the atomic cursors and
// per-slot sequence numbers; the UnsafeCell payloads are never aliased.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Single-threaded by construction (last Arc). Drop every value
        // that was pushed but never popped.
        let mut pos = *self.dequeue.0.get_mut();
        let end = *self.enqueue.0.get_mut();
        while pos != end {
            let mask = self.mask;
            let slot = &mut self.slots[pos & mask];
            if *slot.seq.get_mut() == pos.wrapping_add(1) {
                // SAFETY: seq == pos + 1 means a producer completed its
                // write to this slot and no pop consumed it; the value is
                // initialized and we have exclusive access via &mut self.
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

/// Create a ring with room for at least `capacity` items (rounded up to
/// the next power of two, minimum 2), returning the producer and consumer
/// ends. The [`Producer`] is `Clone` — hand one to every writer thread;
/// the [`Consumer`] is unique.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[Slot<T>]> = (0..cap)
        .map(|i| Slot {
            seq: AtomicUsize::new(i),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let ring = Arc::new(Ring {
        slots,
        mask: cap - 1,
        enqueue: CachePadded(AtomicUsize::new(0)),
        dequeue: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// A producer end of the ring. Cloning shares the same ring.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Self {
        Producer {
            ring: Arc::clone(&self.ring),
        }
    }
}

impl<T: Send> Producer<T> {
    /// Push `value`, or hand it back if the ring is full. Lock-free: one
    /// CAS to claim a slot, one release store to publish it.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        // ord: the cursor read is only a position hint; staleness is
        // corrected by the CAS below, so Relaxed suffices.
        let mut pos = ring.enqueue.0.load(Ordering::Relaxed);
        loop {
            let slot = &ring.slots[pos & ring.mask];
            // ord: Acquire pairs with the consumer's Release in try_pop —
            // seeing the freed sequence number also sees the slot vacated.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot free for this lap: claim it.
                // ord: the CAS only arbitrates cursor ownership; the
                // value handoff is ordered by the slot's seq Release
                // below, so both success and failure can stay Relaxed.
                match ring.enqueue.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed, // ord: see above
                    Ordering::Relaxed, // ord: see above
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed position `pos`
                        // exclusively, and seq == pos showed the slot free
                        // for this lap; no other thread touches the cell
                        // until the Release store publishes it.
                        unsafe { (*slot.value.get()).write(value) };
                        // ord: Release publishes the value write above to
                        // the consumer's Acquire load of seq.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // The slot still holds a value from `capacity` pushes
                // ago: the ring is full.
                return Err(value);
            } else {
                // Another producer claimed this position; chase the
                // cursor.
                // ord: position hint again — any staleness is caught by
                // the next CAS attempt, so Relaxed suffices.
                pos = ring.enqueue.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Items currently in the ring (racy snapshot — exact only when
    /// quiescent). Never exceeds [`Producer::capacity`].
    pub fn len(&self) -> usize {
        len(&self.ring)
    }

    /// Whether the ring is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }
}

/// The unique consumer end of the ring. Not `Clone`; pops take `&mut
/// self`, which is what makes the pop path CAS-free.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Consumer<T> {
    /// Pop the oldest item, or `None` if the ring is empty. Wait-free.
    pub fn try_pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        // ord: only this thread writes dequeue (&mut self), so reading
        // our own cursor needs no ordering.
        let pos = ring.dequeue.0.load(Ordering::Relaxed);
        let slot = &ring.slots[pos & ring.mask];
        // ord: Acquire pairs with the producer's Release store of seq —
        // seeing pos + 1 also sees the fully written value.
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != pos.wrapping_add(1) {
            // Either empty, or a producer has claimed the slot but not
            // yet published its value — in both cases there is nothing
            // consumable at the head.
            return None;
        }
        // Sole consumer: plain store, no CAS.
        // ord: producers never read dequeue for synchronization (len() is
        // advisory), so the cursor bump can stay Relaxed.
        ring.dequeue.0.store(pos.wrapping_add(1), Ordering::Relaxed);
        // SAFETY: the Acquire load above observed seq == pos + 1, so the
        // producer's write to this cell happens-before us and no other
        // consumer exists (&mut self); reading the value out is exclusive.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        // Free the slot for the producers' next lap.
        // ord: Release pairs with the producer's Acquire load of seq —
        // the slot must be observed vacated before it is overwritten.
        slot.seq
            .store(pos.wrapping_add(ring.mask + 1), Ordering::Release); // ord: see above
        Some(value)
    }

    /// Items currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        len(&self.ring)
    }

    /// Whether the ring is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }
}

fn len<T>(ring: &Ring<T>) -> usize {
    // ord: advisory snapshot — the two cursors are not read atomically
    // together, so stronger orderings would not make it exact anyway.
    let enq = ring.enqueue.0.load(Ordering::Relaxed);
    let deq = ring.dequeue.0.load(Ordering::Relaxed); // ord: see above
    enq.wrapping_sub(deq).min(ring.mask + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, mut rx) = ring::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring hands the value back");
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn wrap_around_many_laps() {
        let (tx, mut rx) = ring::<usize>(8);
        let mut next_out = 0usize;
        for i in 0..10_000usize {
            tx.try_push(i).unwrap();
            if i % 3 == 2 {
                // Drain partially so the cursors lap the slab repeatedly.
                while let Some(v) = rx.try_pop() {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
        while let Some(v) = rx.try_pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 10_000);
    }

    #[test]
    fn drop_releases_unpopped_items() {
        let payload = Arc::new(());
        let (tx, mut rx) = ring::<Arc<()>>(8);
        for _ in 0..6 {
            tx.try_push(Arc::clone(&payload)).unwrap();
        }
        assert_eq!(rx.try_pop().map(|_| ()), Some(()));
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1, "ring leaked items on drop");
    }

    #[test]
    fn multi_producer_totals_add_up() {
        let (tx, mut rx) = ring::<(usize, usize)>(64);
        let producers = 4;
        let per = 5_000usize;
        std::thread::scope(|s| {
            for p in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let mut item = (p, i);
                        loop {
                            match tx.try_push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            let mut next = vec![0usize; producers];
            let mut got = 0usize;
            while got < producers * per {
                match rx.try_pop() {
                    Some((p, i)) => {
                        assert_eq!(i, next[p], "producer {p} reordered");
                        next[p] += 1;
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
                assert!(rx.len() <= rx.capacity());
            }
            assert_eq!(rx.try_pop(), None);
        });
    }
}
