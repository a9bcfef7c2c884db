//! Measured energy rebalancing between SCBA iterations
//! (`DistScbaConfig::rebalance_energies`).
//!
//! The memoizer's direct-vs-refine asymmetry makes per-energy costs uneven
//! and unpredictable, so iteration `n`'s measured wall seconds per energy
//! (assembly + equal share of the group solve) re-partition the energies over
//! the flat ranks for iteration `n+1`, and the per-energy Σ state and OBC
//! cache migrate from old owner to new owner when the split moves.

use std::collections::BTreeMap;
use std::ops::Range;

use quatrex_linalg::c64;
use quatrex_obc::{Contact, ObcKey, Subsystem};
use quatrex_runtime::CommPhase;
use quatrex_sync::race::{self, AccessKind, SharedId};

use crate::partition::partition_weighted;
use crate::rank::{RankState, SigmaState};
use crate::slab::{
    off_rank_payload_bytes, push_bt, push_matrix, read_bt, read_matrix, read_value,
    TranspositionBatchPlan, BYTES_PER_VALUE,
};

/// The rank owning energy `k` under the contiguous `ranges`.
fn owner_of(ranges: &[Range<usize>], k: usize) -> usize {
    ranges
        .iter()
        .position(|r| r.contains(&k))
        .expect("every energy is owned") // lint:allow(no-unwrap): the ownership ranges partition the energy grid
}

impl RankState<'_> {
    /// Recompute the energy partition from the measured per-energy wall
    /// seconds of this iteration and migrate the per-energy self-energy state
    /// between owners when the split moves. Every rank joins the collectives
    /// and applies the same deterministic update to its plan.
    pub(crate) fn rebalance(&mut self) {
        let moved = quatrex_probe::span("scba.rebalance", "rebalance", || self.migrate());
        if moved {
            self.log.energy_rebalances += 1;
            self.batches = TranspositionBatchPlan::new(&self.plan, self.p.config.energy_batches);
        }
    }

    /// Returns true when the ownership actually changed.
    fn migrate(&mut self) -> bool {
        let ctx = self.ctx;
        let (rank, n_ranks) = (ctx.rank(), ctx.n_ranks());
        let (nb, bs) = (self.plan.n_blocks, self.plan.block_size);
        let my_e = self.my_energies();
        let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;

        // Every rank contributes (energy index, measured seconds) pairs;
        // the gather gives all ranks the identical full weight vector.
        let packed: Vec<c64> = my_e
            .clone()
            .zip(&self.energy_seconds)
            .map(|(k, &secs)| c64::new(k as f64, secs))
            .collect();
        let gathered = ctx.allgather_tagged(packed, wire, CommPhase::Rebalance);
        let mut weights = vec![0.0f64; self.plan.n_energies];
        for v in gathered.iter().flatten() {
            weights[v.re as usize] = v.im.max(f64::MIN_POSITIVE);
        }
        let new_ranges = partition_weighted(&weights, n_ranks);
        let old_ranges = &self.plan.energy_ranges;

        // Migrate departing energies to their new owner. An unchanged split
        // still runs the (empty) migration collective so every rank executes
        // the same collective sequence.
        let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
        for (k, s) in my_e.clone().zip(&self.sigma) {
            let new_owner = owner_of(&new_ranges, k);
            if new_owner == rank {
                continue;
            }
            let buf = &mut send[new_owner];
            // Old owner relinquishes energy k's σ state (matrices + memoizer
            // cache): the migration alltoallv's channel edge must order this
            // against the new owner's adoption below.
            race::access_shared(
                SharedId::new("dist.sigma_state", k as u64),
                AccessKind::Write,
            );
            push_bt(buf, &s.lesser);
            push_bt(buf, &s.greater);
            push_bt(buf, &s.retarded);
            // The OBC memoizer cache of this energy travels too: without it
            // the new owner would fall back to direct solves and the
            // refinement trajectory (and hence the observables at the
            // memoizer tolerance) would drift.
            let entries = self
                .memoizer
                .as_mut()
                .map_or_else(Vec::new, |m| m.extract_energy(k));
            buf.push(c64::new(entries.len() as f64, 0.0));
            for (key, block) in entries {
                buf.push(encode_obc_key(&key));
                push_matrix(buf, &block);
            }
        }
        self.log.counters.rebalance_bytes += off_rank_payload_bytes(rank, &send);
        let received = ctx.alltoallv_tagged(send, wire, CommPhase::Rebalance);
        if new_ranges == *old_ranges {
            return false;
        }

        let mut kept: BTreeMap<usize, SigmaState> =
            my_e.zip(std::mem::take(&mut self.sigma)).collect();
        // One read cursor per source rank, shared by every energy migrated
        // from it; the wire codec is the same push/read helpers the spatial
        // block-range messages use.
        let mut readers: Vec<_> = received.iter().map(|m| m.iter()).collect();
        for k in new_ranges[rank].clone() {
            if let Some(s) = kept.remove(&k) {
                self.sigma.push(s);
                continue;
            }
            let it = &mut readers[owner_of(old_ranges, k)];
            // New owner adopts energy k's migrated σ state.
            race::access_shared(
                SharedId::new("dist.sigma_state", k as u64),
                AccessKind::Write,
            );
            self.sigma.push(SigmaState {
                lesser: read_bt(it, nb, bs),
                greater: read_bt(it, nb, bs),
                retarded: read_bt(it, nb, bs),
            });
            for _ in 0..read_value(it).re as usize {
                let key = decode_obc_key(read_value(it), k);
                let block = read_matrix(it, bs);
                if let Some(m) = self.memoizer.as_mut() {
                    m.insert_cached(key, block);
                }
            }
        }
        for (src, mut it) in readers.into_iter().enumerate() {
            assert!(
                it.next().is_none(),
                "rebalance message from {src} fully consumed"
            );
        }
        self.plan.to_mut().energy_ranges = new_ranges;
        true
    }
}

/// Encode an [`ObcKey`] (minus the energy index, which is implied by the
/// message position) into one wire value. The warm-state stream
/// ([`crate::WarmState`]) reuses this code and carries the energy index in
/// the imaginary part.
pub(crate) fn encode_obc_key(key: &ObcKey) -> c64 {
    let contact = match key.contact {
        Contact::Left => 0u8,
        Contact::Right => 1,
    };
    let subsystem = match key.subsystem {
        Subsystem::Electron => 0u8,
        Subsystem::ScreenedCoulomb => 1,
    };
    c64::new(
        (contact as f64) + 2.0 * (subsystem as f64) + 4.0 * (key.component as f64),
        0.0,
    )
}

/// Inverse of [`encode_obc_key`] for the given energy index.
pub(crate) fn decode_obc_key(v: c64, energy_index: usize) -> ObcKey {
    let code = v.re as u64;
    ObcKey {
        contact: if code & 1 == 0 {
            Contact::Left
        } else {
            Contact::Right
        },
        subsystem: if (code >> 1) & 1 == 0 {
            Subsystem::Electron
        } else {
            Subsystem::ScreenedCoulomb
        },
        component: (code >> 2) as u8,
        energy_index,
    }
}
