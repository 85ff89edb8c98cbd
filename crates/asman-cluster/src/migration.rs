//! Live-migration cost model.
//!
//! The simulator charges a stop-and-copy migration two ways:
//!
//! * a **copy cost** proportional to the pages dirtied since the last
//!   epoch — a VM that burned more CPU dirtied more memory, so busy VMs
//!   are more expensive to move (the classic pre-copy dirty-rate
//!   tradeoff collapsed to one deterministic term);
//! * a **downtime floor** for the final stop-and-copy handover.
//!
//! The resulting pause is injected as guest-visible dead time: the VM's
//! VCPUs wake on the destination only when the pause ends, and sleep
//! deadlines that expired mid-pause fire late.

use asman_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Deterministic integer cost model for one stop-and-copy migration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MigrationModel {
    /// Pages always copied regardless of activity (the working set
    /// floor: kernel image, page tables, resident heap).
    pub base_pages: u64,
    /// Pages dirtied per million cycles of guest online time in the
    /// epoch before the move — the dirty rate.
    pub dirty_pages_per_mcycle: u64,
    /// Copy bandwidth, expressed as cycles of pause per page.
    pub copy_cycles_per_page: u64,
    /// Fixed stop-and-copy downtime floor in cycles.
    pub downtime_base: Cycles,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            base_pages: 8_192,
            dirty_pages_per_mcycle: 48,
            copy_cycles_per_page: 1_500,
            // ~0.3 ms at the default 2 GHz-scale clock.
            downtime_base: Cycles(600_000),
        }
    }
}

impl MigrationModel {
    /// Pages that must be copied for a VM that was online for
    /// `online_delta` cycles in the last epoch.
    pub fn dirty_pages(&self, online_delta: Cycles) -> u64 {
        self.base_pages + (online_delta.as_u64() / 1_000_000) * self.dirty_pages_per_mcycle
    }

    /// Guest-visible pause for copying `dirty` pages.
    pub fn pause(&self, dirty: u64) -> Cycles {
        self.downtime_base + Cycles(dirty.saturating_mul(self.copy_cycles_per_page))
    }

    /// Guest-visible penalty for a migration that aborts mid-copy: the
    /// abort is detected halfway through the stop-and-copy, so the
    /// source guest ate half the full pause for nothing before it is
    /// rolled back. Deterministic so the cluster auditor can re-derive
    /// it from any [`AbortRecord`].
    pub fn abort_penalty(&self, dirty: u64) -> Cycles {
        Cycles(self.pause(dirty).as_u64() / 2)
    }
}

/// One executed live migration, as recorded by the cluster driver. The
/// cluster auditor recomputes `dirty_pages` and `pause` from
/// `online_delta` through the same model and panics on any mismatch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Epoch (0-based) at whose boundary the move happened.
    pub epoch: u64,
    /// Cluster-wide VM id.
    pub vm: usize,
    /// VM name.
    pub name: String,
    /// Source host.
    pub from: usize,
    /// Destination host.
    pub to: usize,
    /// The VM's online cycles in the epoch before the move — the dirty
    /// model's input.
    pub online_delta: u64,
    /// Pages copied.
    pub dirty_pages: u64,
    /// Guest-visible dead time in cycles.
    pub pause: u64,
}

/// One *aborted* migration attempt: the VM was extracted, the copy
/// failed (per the fault plan), and the image was rolled back onto the
/// source with `penalty` cycles of guest-visible dead time. The cluster
/// auditor recomputes `dirty_pages` and `penalty` from `online_delta`
/// through the model and panics on any mismatch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbortRecord {
    /// Epoch (0-based) at whose boundary the attempt was made.
    pub epoch: u64,
    /// Cluster-wide VM id.
    pub vm: usize,
    /// VM name.
    pub name: String,
    /// Source host (where the VM was rolled back to).
    pub from: usize,
    /// Intended destination host.
    pub to: usize,
    /// Attempt number in the retry chain, 1-based.
    pub attempt: u32,
    /// The VM's online cycles in the epoch before the attempt.
    pub online_delta: u64,
    /// Pages the copy would have moved.
    pub dirty_pages: u64,
    /// Guest-visible dead time of the failed attempt in cycles.
    pub penalty: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busier_vms_cost_more_to_move() {
        let m = MigrationModel::default();
        let idle = m.pause(m.dirty_pages(Cycles(0)));
        let busy = m.pause(m.dirty_pages(Cycles(200_000_000)));
        assert!(busy > idle);
        assert_eq!(m.dirty_pages(Cycles(0)), m.base_pages);
    }

    #[test]
    fn abort_penalty_is_half_the_pause() {
        let m = MigrationModel::default();
        let dirty = m.dirty_pages(Cycles(90_000_000));
        assert_eq!(m.abort_penalty(dirty).as_u64(), m.pause(dirty).as_u64() / 2);
        assert!(m.abort_penalty(dirty) < m.pause(dirty));
    }
}
