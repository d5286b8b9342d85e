//! # gca-workloads — workloads for the GC-assertions reproduction
//!
//! Everything that *drives* the VM lives here:
//!
//! * [`structures`] — data structures built out of heap objects (linked
//!   list, array list, open hash map, and the `longBTree` that SPECjbb
//!   uses for its order table), so workloads create realistic heap shapes;
//! * [`suite`] — synthetic analogues of the paper's benchmark suite
//!   (DaCapo 2006, SPECjvm98, pseudojbb), parameterized by allocation
//!   volume, object-size mix, lifetime mix and structure churn;
//! * [`runner`] — the measurement harness: runs a workload under a given
//!   VM configuration and reports total / GC / mutator time, reproducing
//!   the Base / Infrastructure / WithAssertions comparisons of §3.1;
//! * case studies from §3.2: [`pseudojbb`] (order-processing system with
//!   the Customer→Order leak, the `oldCompany` drag, and the orderTable
//!   BTree leak), [`db`] (`_209_db` with ownership assertions),
//!   [`lusearch_app`] (the 32-IndexSearcher finding), and [`swapleak`]
//!   (the hidden inner-class reference);
//! * [`scenario`] — session-style scenarios driven one request at a time
//!   by the fleet soak harness (a session cache, a social graph and a
//!   message broker), each doubling as a batch [`runner::Workload`].
//!
//! All workloads are deterministic (seeded [`rand::rngs::SmallRng`]), so
//! every experiment in the repository reproduces bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod broker;
pub mod db;
pub mod lusearch_app;
pub mod pseudojbb;
pub mod runner;
pub mod scenario;
mod session_cache;
mod social_graph;
pub mod structures;
pub mod suite;
pub mod swapleak;
