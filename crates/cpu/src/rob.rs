//! The reorder-buffer ring both core models keep their in-flight
//! instructions in.
//!
//! Instructions enter in program order under consecutive sequence
//! numbers and leave from the head. The ring has a power-of-two number of
//! slots, so the slot of sequence number `seq` is `seq & mask` and a
//! lookup is one bounds check and one index. Slots are created on the
//! ring's first lap and then rewritten in place: the list of dependents
//! each slot carries keeps its capacity from one instruction to the next,
//! so a core in steady state dispatches, wakes and retires without
//! touching the allocator.
//!
//! The ring only stores entries; the window size is the core's to
//! enforce. A core configured with a non-power-of-two ROB (say 200
//! entries) gets a 256-slot ring and still stops dispatch at 200.

/// One slot: the core's entry plus the younger entries waiting on it.
#[derive(Debug, Clone)]
struct Slot<E> {
    entry: E,
    dependents: Vec<u64>,
}

/// A reorder buffer of `E` entries addressed by sequence number (see the
/// [module docs](self)).
///
/// # Example
///
/// ```
/// use hermes_cpu::rob::RobRing;
///
/// let mut rob: RobRing<char> = RobRing::new(3); // rounds up to 4 slots
/// assert_eq!(rob.push('a'), 0);
/// assert_eq!(rob.push('b'), 1);
/// rob.add_dependent(0, 1);
/// assert_eq!(rob.pop_front(), Some('a'));
/// assert_eq!(rob.get(0), None); // retired
/// assert_eq!(rob.get(1), Some(&'b'));
/// assert_eq!(rob.get(2), None); // not dispatched yet
/// ```
#[derive(Debug, Clone)]
pub struct RobRing<E> {
    slots: Vec<Slot<E>>,
    mask: u64,
    /// Sequence number of the oldest entry.
    head: u64,
    /// Sequence number the next pushed entry receives.
    tail: u64,
}

impl<E: Copy> RobRing<E> {
    /// An empty ring able to hold `capacity` entries, rounded up to a
    /// power of two. Slots are created lazily as the first lap fills.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB ring needs at least one slot");
        let slots = capacity.next_power_of_two();
        Self {
            slots: Vec::with_capacity(slots),
            mask: slots as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    /// Number of entries in flight.
    #[inline]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether no entry is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Sequence number of the oldest entry (equal to
    /// [`RobRing::next_seq`] when empty).
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head
    }

    /// Sequence number the next [`RobRing::push`] assigns.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.tail
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> Option<usize> {
        (self.head <= seq && seq < self.tail).then_some((seq & self.mask) as usize)
    }

    /// Appends `entry` as the youngest instruction and returns its
    /// sequence number. The slot's dependents list starts empty.
    ///
    /// # Panics
    ///
    /// Panics if every slot is occupied.
    pub fn push(&mut self, entry: E) -> u64 {
        assert!(self.len() <= self.mask as usize, "ROB ring overflow");
        let seq = self.tail;
        let idx = (seq & self.mask) as usize;
        if idx == self.slots.len() {
            self.slots.push(Slot {
                entry,
                dependents: Vec::new(),
            });
        } else {
            let slot = &mut self.slots[idx];
            slot.entry = entry;
            slot.dependents.clear();
        }
        self.tail += 1;
        seq
    }

    /// Removes and returns the oldest entry.
    #[inline]
    pub fn pop_front(&mut self) -> Option<E> {
        let idx = self.slot_of(self.head)?;
        self.head += 1;
        Some(self.slots[idx].entry)
    }

    /// The oldest entry.
    #[inline]
    pub fn front(&self) -> Option<&E> {
        self.get(self.head)
    }

    /// The oldest entry, mutably.
    #[inline]
    pub fn front_mut(&mut self) -> Option<&mut E> {
        self.get_mut(self.head)
    }

    /// The entry with sequence number `seq`; `None` once it retired or
    /// before it is dispatched.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&E> {
        self.slot_of(seq).map(|i| &self.slots[i].entry)
    }

    /// The entry with sequence number `seq`, mutably.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut E> {
        self.slot_of(seq).map(|i| &mut self.slots[i].entry)
    }

    /// Records `dependent` as waiting on `producer`'s result.
    ///
    /// # Panics
    ///
    /// Panics if `producer` is not in flight.
    pub fn add_dependent(&mut self, producer: u64, dependent: u64) {
        let idx = self.slot_of(producer).expect("producer in ROB");
        self.slots[idx].dependents.push(dependent);
    }

    /// Takes `seq`'s dependents, in the order they were added, so the
    /// caller can wake them while mutating the ring. Hand the list back
    /// with [`RobRing::restore_dependents`] to keep its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    pub fn take_dependents(&mut self, seq: u64) -> Vec<u64> {
        let idx = self.slot_of(seq).expect("entry in ROB");
        std::mem::take(&mut self.slots[idx].dependents)
    }

    /// Returns a list taken by [`RobRing::take_dependents`] to `seq`'s
    /// slot, emptied.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    pub fn restore_dependents(&mut self, seq: u64, mut list: Vec<u64>) {
        let idx = self.slot_of(seq).expect("entry in ROB");
        list.clear();
        self.slots[idx].dependents = list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_a_power_of_two_and_fills_lazily() {
        let rob: RobRing<u32> = RobRing::new(200);
        assert_eq!(rob.mask, 255);
        assert_eq!(rob.slots.len(), 0, "no slot exists before the first push");
        assert_eq!(RobRing::<u32>::new(512).mask, 511);
        assert_eq!(RobRing::<u32>::new(1).mask, 0);
    }

    #[test]
    fn wraps_around_far_past_capacity() {
        let mut rob: RobRing<u64> = RobRing::new(8);
        // Keep five entries in flight while 10 000 pass through.
        for seq in 0..10_000u64 {
            assert_eq!(rob.push(seq * 3), seq);
            if rob.len() > 5 {
                let head = rob.head_seq();
                assert_eq!(rob.pop_front(), Some(head * 3));
            }
            for s in rob.head_seq()..rob.next_seq() {
                assert_eq!(rob.get(s), Some(&(s * 3)));
            }
        }
        assert_eq!(rob.slots.len(), 8, "slots are reused, never added");
        assert_eq!(rob.len(), 5);
        assert_eq!(rob.front(), Some(&(9_995 * 3)));
    }

    #[test]
    fn retired_and_undispatched_sequence_numbers_are_absent() {
        let mut rob: RobRing<u8> = RobRing::new(4);
        assert_eq!(rob.get(0), None);
        for i in 0..4 {
            rob.push(i);
        }
        // Seq 4 reuses seq 0's slot: a lookup that only masked would
        // find it under seq 0 and seq 8 too.
        rob.pop_front();
        rob.pop_front();
        rob.push(4);
        assert_eq!(rob.get(0), None, "retired");
        assert_eq!(rob.get(1), None, "retired");
        assert_eq!(rob.get(4), Some(&4));
        assert_eq!(rob.get(5), None, "not dispatched");
        assert_eq!(rob.get(8), None, "not dispatched, aliases seq 4's slot");
        assert_eq!(rob.get_mut(1), None);
        assert_eq!(rob.get(u64::MAX), None);
    }

    #[test]
    fn reused_slot_carries_no_stale_dependents() {
        let mut rob: RobRing<()> = RobRing::new(2);
        rob.push(());
        rob.push(());
        rob.add_dependent(0, 1);
        rob.add_dependent(0, 7);
        // Retire seq 0 without completing it; seq 2 lands in its slot.
        rob.pop_front();
        assert_eq!(rob.push(()), 2);
        assert!(rob.take_dependents(2).is_empty());
    }

    #[test]
    fn dependents_keep_order_and_capacity() {
        let mut rob: RobRing<()> = RobRing::new(2);
        rob.push(());
        for d in [5, 3, 9] {
            rob.add_dependent(0, d);
        }
        let list = rob.take_dependents(0);
        assert_eq!(list, vec![5, 3, 9]);
        let cap = list.capacity();
        rob.restore_dependents(0, list);
        rob.pop_front();
        rob.push(());
        rob.push(());
        // Seq 2 reuses seq 0's slot and its list's allocation.
        let list = rob.take_dependents(2);
        assert!(list.is_empty());
        assert_eq!(list.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "ROB ring overflow")]
    fn overflow_panics() {
        let mut rob: RobRing<()> = RobRing::new(2);
        for _ in 0..3 {
            rob.push(());
        }
    }
}
