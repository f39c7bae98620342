//! Miss-status holding registers.
//!
//! An MSHR tracks one outstanding miss per cache line and merges subsequent
//! requests to the same line (no duplicate traffic to the next level). The
//! waiter payload is generic: the hierarchy engine stores whatever it needs
//! to resume each merged requester when the fill arrives.
//!
//! A register keeps its waiter list across misses. Completion swaps the
//! list with an empty buffer the caller owns, so the register goes back
//! to the free pool holding the caller's old allocation and the caller
//! walks the waiters in its own. Once every register and the caller's
//! buffers have grown to their working size, a miss allocates nothing.

use hermes_types::LineAddr;

/// Error returned when the table is full (structural stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFull;

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("all MSHRs in use")
    }
}

impl std::error::Error for MshrFull {}

#[derive(Debug, Clone)]
struct Entry<T> {
    line: LineAddr,
    waiters: Vec<T>,
    /// True while only prefetch requests wait on this line (a demand merge
    /// upgrades it; used for prefetch accounting and fill attribution).
    prefetch_only: bool,
}

/// A fixed-capacity MSHR table with per-line merge.
///
/// # Example
///
/// ```
/// use hermes_cache::MshrTable;
/// use hermes_types::LineAddr;
///
/// let mut t: MshrTable<u32> = MshrTable::new(2);
/// let line = LineAddr::new(7);
/// assert!(t.allocate(line, 1, false).unwrap()); // new entry
/// assert!(!t.allocate(line, 2, false).unwrap()); // merged
/// let mut waiters = Vec::new();
/// assert_eq!(t.complete(line, &mut waiters), Some(false)); // demand, not prefetch-only
/// assert_eq!(waiters, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<T> {
    /// Registers: the first `live` are outstanding misses; the rest are
    /// free and hold empty waiter lists for reuse.
    entries: Vec<Entry<T>>,
    live: usize,
    capacity: usize,
}

impl<T> MshrTable<T> {
    /// A table with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one register");
        Self {
            entries: Vec::with_capacity(capacity),
            live: 0,
            capacity,
        }
    }

    fn outstanding(&self) -> &[Entry<T>] {
        &self.entries[..self.live]
    }

    fn position(&self, line: LineAddr) -> Option<usize> {
        self.outstanding().iter().position(|e| e.line == line)
    }

    /// Registers a miss for `line` carrying `waiter`.
    ///
    /// Returns `Ok(true)` if a new entry was allocated (the caller must
    /// forward the miss to the next level), `Ok(false)` if merged into an
    /// existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when a new entry is needed but no register is
    /// free — the requester must retry later.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        waiter: T,
        is_prefetch: bool,
    ) -> Result<bool, MshrFull> {
        if let Some(pos) = self.position(line) {
            let e = &mut self.entries[pos];
            e.waiters.push(waiter);
            e.prefetch_only &= is_prefetch;
            return Ok(false);
        }
        if self.live == self.capacity {
            return Err(MshrFull);
        }
        if self.live == self.entries.len() {
            self.entries.push(Entry {
                line,
                waiters: Vec::new(),
                prefetch_only: is_prefetch,
            });
        }
        let e = &mut self.entries[self.live];
        debug_assert!(e.waiters.is_empty(), "free register holds waiters");
        e.line = line;
        e.prefetch_only = is_prefetch;
        e.waiters.push(waiter);
        self.live += 1;
        Ok(true)
    }

    /// Whether a miss to `line` is already outstanding.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Whether the outstanding entry for `line` (if any) is still
    /// prefetch-only.
    pub fn is_prefetch_only(&self, line: LineAddr) -> Option<bool> {
        self.position(line)
            .map(|pos| self.entries[pos].prefetch_only)
    }

    /// Upgrades an outstanding prefetch-only entry to demand status without
    /// adding a waiter. Returns whether the entry existed.
    pub fn mark_demand(&mut self, line: LineAddr) -> bool {
        match self.position(line) {
            Some(pos) => {
                self.entries[pos].prefetch_only = false;
                true
            }
            None => false,
        }
    }

    /// Completes the miss for `line`, releasing the register.
    ///
    /// The merged waiters, in arrival order, are swapped into `waiters`
    /// (whose previous contents are discarded); the register keeps the
    /// buffer `waiters` held, emptied. Returns whether the entry remained
    /// prefetch-only, or `None` (with `waiters` untouched) if no entry
    /// matches.
    pub fn complete(&mut self, line: LineAddr, waiters: &mut Vec<T>) -> Option<bool> {
        let pos = self.position(line)?;
        waiters.clear();
        self.live -= 1;
        self.entries.swap(pos, self.live);
        let e = &mut self.entries[self.live];
        std::mem::swap(&mut e.waiters, waiters);
        Some(e.prefetch_only)
    }

    /// Number of registers currently in use.
    pub fn in_use(&self) -> usize {
        self.live
    }

    /// Whether every register is occupied.
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_same_line() {
        let mut t: MshrTable<u8> = MshrTable::new(4);
        let l = LineAddr::new(1);
        assert_eq!(t.allocate(l, 1, false), Ok(true));
        assert_eq!(t.allocate(l, 2, false), Ok(false));
        assert_eq!(t.in_use(), 1);
        let mut w = Vec::new();
        assert_eq!(t.complete(l, &mut w), Some(false));
        assert_eq!(w, vec![1, 2]);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn full_table_rejects_new_lines_only() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        t.allocate(LineAddr::new(1), 0, false).unwrap();
        t.allocate(LineAddr::new(2), 0, false).unwrap();
        assert!(t.is_full());
        assert_eq!(t.allocate(LineAddr::new(3), 0, false), Err(MshrFull));
        // Merge into an existing line still succeeds.
        assert_eq!(t.allocate(LineAddr::new(1), 9, false), Ok(false));
    }

    #[test]
    fn demand_merge_clears_prefetch_only() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let l = LineAddr::new(5);
        t.allocate(l, 0, true).unwrap();
        t.allocate(l, 1, false).unwrap();
        assert_eq!(t.complete(l, &mut Vec::new()), Some(false));
    }

    #[test]
    fn prefetch_only_preserved() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let l = LineAddr::new(6);
        t.allocate(l, 0, true).unwrap();
        assert_eq!(t.complete(l, &mut Vec::new()), Some(true));
    }

    #[test]
    fn mark_demand_upgrades() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let l = LineAddr::new(7);
        t.allocate(l, 0, true).unwrap();
        assert!(t.mark_demand(l));
        assert_eq!(t.complete(l, &mut Vec::new()), Some(false));
        assert!(!t.mark_demand(l));
    }

    #[test]
    fn complete_missing_line_is_none() {
        let mut t: MshrTable<u8> = MshrTable::new(1);
        assert!(t.complete(LineAddr::new(42), &mut Vec::new()).is_none());
    }

    #[test]
    fn reused_register_starts_fresh() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let (a, b, c) = (LineAddr::new(1), LineAddr::new(2), LineAddr::new(3));
        // Register 0 holds a prefetch-only miss with three waiters.
        t.allocate(a, 1, true).unwrap();
        t.allocate(a, 2, true).unwrap();
        t.allocate(a, 3, true).unwrap();
        t.allocate(b, 9, false).unwrap();
        let mut w = Vec::new();
        assert_eq!(t.complete(a, &mut w), Some(true));
        assert_eq!(w, vec![1, 2, 3]);
        // The freed register is reallocated for a demand miss: only the
        // new waiters, in arrival order, and no prefetch-only carry-over.
        assert_eq!(t.allocate(c, 7, false), Ok(true));
        assert_eq!(t.allocate(c, 5, false), Ok(false));
        assert_eq!(t.in_use(), 2);
        assert!(t.is_full());
        assert_eq!(t.is_prefetch_only(c), Some(false));
        assert!(!t.contains(a));
        let mut w2 = Vec::new();
        assert_eq!(t.complete(c, &mut w2), Some(false));
        assert_eq!(w2, vec![7, 5]);
        // A prefetch allocated into the register a demand just left is
        // prefetch-only again.
        assert_eq!(t.allocate(a, 4, true), Ok(true));
        assert_eq!(t.is_prefetch_only(a), Some(true));
        // The survivor is untouched by its neighbours' reuse.
        w.clear();
        assert_eq!(t.complete(b, &mut w), Some(false));
        assert_eq!(w, vec![9]);
    }

    #[test]
    fn completion_recycles_the_callers_buffer() {
        let mut t: MshrTable<u32> = MshrTable::new(1);
        let l = LineAddr::new(1);
        let mut buf: Vec<u32> = Vec::with_capacity(16);
        let ptr = buf.as_ptr();
        t.allocate(l, 1, false).unwrap();
        t.complete(l, &mut buf).unwrap();
        assert_eq!(buf, vec![1]);
        buf.clear();
        // The register now owns the 16-slot buffer: a new miss reuses it.
        t.allocate(l, 2, false).unwrap();
        let mut out = Vec::new();
        t.complete(l, &mut out).unwrap();
        assert_eq!(out.as_ptr(), ptr);
        assert!(out.capacity() >= 16);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: MshrTable<u8> = MshrTable::new(0);
    }
}
