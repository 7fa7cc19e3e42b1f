//! ARP cache, acceptance policies, and the pending-resolution queue.

mod cache;
mod policy;
mod resolver;
mod retry;

pub use cache::{ArpCache, ArpEntry, EntryOrigin};
pub use policy::{AdmitContext, ArpPolicy, CacheVerdict};
pub(crate) use resolver::{Enqueued, PendingPacket, Resolver, RetryTick};
pub use retry::RetryPolicy;
