//! Address translation for the Hermes reproduction: TLBs, a page-walk
//! cache, and the deterministic page map the hardware walker traverses.
//!
//! The paper models the TLB as accessed in parallel with the L1 (§3.1)
//! and notes that Hermes-O can only launch its speculative DRAM access
//! once the *physical* address is known — so translation latency sits on
//! the critical path of exactly the loads Hermes accelerates. This crate
//! supplies the structures a timing simulator needs to model that
//! honestly:
//!
//! * [`Tlb`] — a set-associative, LRU translation buffer used for both
//!   the per-core L1 dTLB and the L2 STLB (private or shared);
//! * [`WalkCache`] — a small fully-associative cache of upper-level
//!   page-table entries that lets the walker skip the top of the radix
//!   tree;
//! * [`PageMap`] — the deterministic virtual→physical mapping (4 KB base
//!   pages plus optional 2 MB huge pages) and the physical cache-line
//!   addresses of the page-table entries a radix walk touches.
//!
//! Like `hermes-cache`, everything here is *passive*: no queues, no
//! clocks. The walker's state machine — issuing the PTE accesses through
//! the cache hierarchy, merging same-page requests, waking deferred
//! loads — lives in the hierarchy engine (`hermes-sim`), which owns the
//! event loop those accesses must flow through.
//!
//! # Example
//!
//! ```
//! use hermes_vm::{PageMap, Tlb, TlbConfig};
//! use hermes_types::VirtAddr;
//!
//! let map = PageMap::new(0); // all 4 KB pages
//! let v = VirtAddr::new(0x7fff_1234);
//! let (p, huge) = map.translate(0, v);
//! assert!(!huge);
//! assert_eq!(p.offset_in_page(), v.offset_in_page());
//!
//! let mut tlb = Tlb::new(&TlbConfig::new(64, 4, 0));
//! let (vpn, key) = (v.page_number(), PageMap::tlb_key(None, v.page_number(), false));
//! assert!(!tlb.lookup(vpn, key));
//! tlb.insert(vpn, key);
//! assert!(tlb.lookup(vpn, key));
//! ```

pub mod config;
pub mod page_map;
pub mod tlb;
pub mod walk_cache;

pub use config::{TlbConfig, VmConfig};
pub use page_map::{PageMap, HUGE_PAGE_BITS, HUGE_PAGE_SIZE, MAX_WALK_LEVELS, PT_LEVEL_BITS};
pub use tlb::Tlb;
pub use walk_cache::WalkCache;
