//! Cross-sectional bandwidth and rack-aware placement (§4.9.2).
//!
//! Data-center trees make inter-rack ("cross-sectional") bandwidth scarce.
//! PTN can pin a cluster into few racks so each object update crosses the
//! core once per rack; ROAR achieves the same by making ring order follow
//! rack order and forwarding updates peer-to-peer along the ring — "almost
//! all of these hops will be intra-rack", costing at most one extra rack
//! per update ("ROAR will generate (l+1)·D cross-sectional traffic … which
//! is marginally more than PTN").

use crate::types::ServerId;

/// A rack layout: server → rack.
#[derive(Debug, Clone)]
pub struct RackLayout {
    rack_of: Vec<usize>,
    n_racks: usize,
}

impl RackLayout {
    /// `n` servers filled rack by rack, `per_rack` servers each.
    pub fn contiguous(n: usize, per_rack: usize) -> Self {
        assert!(per_rack >= 1);
        let rack_of: Vec<usize> = (0..n).map(|i| i / per_rack).collect();
        let n_racks = rack_of.last().map_or(0, |&r| r + 1);
        RackLayout { rack_of, n_racks }
    }

    /// Servers assigned round-robin across racks — the *bad* layout for
    /// update traffic (every ring hop crosses racks).
    pub fn striped(n: usize, n_racks: usize) -> Self {
        assert!(n_racks >= 1);
        RackLayout {
            rack_of: (0..n).map(|i| i % n_racks).collect(),
            n_racks,
        }
    }

    pub fn rack(&self, s: ServerId) -> usize {
        self.rack_of[s]
    }

    /// The servers of one rack, in ring order — a correlated-failure
    /// injector crashes exactly this set.
    pub fn servers_in_rack(&self, rack: usize) -> Vec<ServerId> {
        (0..self.rack_of.len())
            .filter(|&s| self.rack_of[s] == rack)
            .collect()
    }

    pub fn n_racks(&self) -> usize {
        self.n_racks
    }

    /// Cross-sectional messages for one update forwarded peer-to-peer along
    /// the given replica chain (ring order): one per rack boundary crossed.
    pub fn cross_rack_hops(&self, chain: &[ServerId]) -> usize {
        chain
            .windows(2)
            .filter(|w| self.rack(w[0]) != self.rack(w[1]))
            .count()
    }

    /// Racks touched by a replica set (PTN's per-update core cost when the
    /// update is pushed once per rack).
    pub fn racks_touched(&self, replicas: &[ServerId]) -> usize {
        let mut racks: Vec<usize> = replicas.iter().map(|&s| self.rack(s)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_layout_keeps_ring_hops_local() {
        // 12 servers, 4 per rack; a ROAR replica chain of 5 consecutive
        // servers crosses at most ceil(5/4) rack boundaries
        let l = RackLayout::contiguous(12, 4);
        assert_eq!(l.n_racks(), 3);
        let chain = [2usize, 3, 4, 5, 6];
        assert_eq!(l.cross_rack_hops(&chain), 1);
        assert_eq!(l.racks_touched(&chain), 2);
    }

    #[test]
    fn striped_layout_crosses_on_every_hop() {
        let l = RackLayout::striped(12, 4);
        let chain = [2usize, 3, 4, 5, 6];
        assert_eq!(
            l.cross_rack_hops(&chain),
            4,
            "every consecutive pair differs in rack"
        );
    }

    #[test]
    fn roar_contiguous_close_to_ptn_lower_bound() {
        // §4.9.2: ROAR's (l+1) racks vs PTN's l — for chains spanning l
        // racks, peer-to-peer forwarding crosses ≤ racks_touched boundaries
        let layout = RackLayout::contiguous(40, 8);
        for start in 0..30usize {
            let chain: Vec<usize> = (start..start + 10).collect();
            let racks = layout.racks_touched(&chain);
            let hops = layout.cross_rack_hops(&chain);
            assert!(
                hops <= racks,
                "p2p forwarding: {hops} hops vs {racks} racks"
            );
            assert!(hops + 1 >= racks, "chain must reach every rack it touches");
        }
    }

    #[test]
    fn single_rack_zero_cross_traffic() {
        let l = RackLayout::contiguous(8, 8);
        assert_eq!(l.cross_rack_hops(&[0, 1, 2, 3]), 0);
        assert_eq!(l.racks_touched(&[0, 1, 2, 3]), 1);
    }
}
