//! Live front-end server statistics (§4.8).
//!
//! "The front-end server also maintains statistics about each ROAR node: the
//! node's range, liveness (last time seen up), the outstanding queries
//! scheduled on the node and their expected finish time, and the processing
//! speed of the node." Speeds are EWMA-smoothed from completed sub-queries;
//! the estimator models each node as a serial queue (Def. 8), which is what
//! both the simulator and the real cluster front-end use to predict finish
//! times.

use roar_dr::sched::FinishEstimator;
use roar_dr::ServerId;
use roar_util::Ewma;

/// Per-node tracking state.
#[derive(Debug, Clone)]
struct NodeStat {
    /// Smoothed processing speed in work-fraction per second (a speed of
    /// 2.0 means the node can scan the full dataset in half a second).
    speed: Ewma,
    /// Work dispatched but not yet completed.
    outstanding_work: f64,
    /// Liveness flag (flipped by timeout detection in the front-end).
    alive: bool,
    /// Last time any message was seen from this node.
    last_seen: f64,
}

/// Fleet statistics + finish-time estimation for the live front-end.
#[derive(Debug, Clone)]
pub struct ServerStats {
    nodes: Vec<NodeStat>,
    default_speed: f64,
    now: f64,
}

impl ServerStats {
    /// `default_speed` seeds estimates for nodes that have never completed a
    /// sub-query (a fresh system has no measurements yet).
    pub fn new(n: usize, default_speed: f64, ewma_alpha: f64) -> Self {
        assert!(default_speed > 0.0);
        ServerStats {
            nodes: (0..n)
                .map(|_| NodeStat {
                    speed: Ewma::new(ewma_alpha),
                    outstanding_work: 0.0,
                    alive: true,
                    last_seen: 0.0,
                })
                .collect(),
            default_speed,
            now: 0.0,
        }
    }

    /// Advance the clock (absolute seconds).
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    /// Record a dispatched sub-query.
    pub fn on_dispatch(&mut self, node: ServerId, work: f64) {
        self.nodes[node].outstanding_work += work;
    }

    /// Record a completed sub-query: `work` scanned in `proc_time` seconds
    /// of node-local processing (reported by the node in its reply).
    pub fn on_complete(&mut self, node: ServerId, work: f64, proc_time: f64) {
        let st = &mut self.nodes[node];
        st.outstanding_work = (st.outstanding_work - work).max(0.0);
        st.last_seen = self.now;
        st.alive = true;
        if proc_time > 0.0 {
            st.speed.observe(work / proc_time);
        }
    }

    /// A sub-query timed out: mark the node dead and drop its queue estimate
    /// ("these timers are used to detect node failures quickly: if a query
    /// response times out, the node is marked as dead", §4.8).
    pub fn on_timeout(&mut self, node: ServerId) {
        let st = &mut self.nodes[node];
        st.alive = false;
        st.outstanding_work = 0.0;
    }

    /// Node came back (heartbeat / membership update).
    pub fn on_alive(&mut self, node: ServerId) {
        self.nodes[node].alive = true;
        self.nodes[node].last_seen = self.now;
    }

    pub fn is_alive(&self, node: ServerId) -> bool {
        self.nodes[node].alive
    }

    /// Current speed estimate (measured or default).
    pub fn speed_estimate(&self, node: ServerId) -> f64 {
        self.nodes[node].speed.get_or(self.default_speed)
    }

    pub fn outstanding(&self, node: ServerId) -> f64 {
        self.nodes[node].outstanding_work
    }

    pub fn last_seen(&self, node: ServerId) -> f64 {
        self.nodes[node].last_seen
    }

    /// Grow the fleet (new node joins). The newcomer's speed estimate is
    /// seeded from the median of the fleet's current estimates rather than
    /// the configured default: §4.9's range-to-speed load proxy only ranks
    /// meaningfully when estimates share a scale, and the default can sit
    /// orders of magnitude from the measured speeds — every joiner would
    /// look arbitrarily fast (or slow) to the hottest-spot picker until its
    /// own first completions land.
    pub fn add_node(&mut self) -> ServerId {
        let mut speed = Ewma::new(0.2);
        if !self.nodes.is_empty() {
            let mut speeds: Vec<f64> = (0..self.nodes.len())
                .map(|i| self.speed_estimate(i))
                .collect();
            speeds.sort_by(|a, b| a.partial_cmp(b).expect("speeds are not NaN"));
            speed.observe(speeds[speeds.len() / 2]);
        }
        self.nodes.push(NodeStat {
            speed,
            outstanding_work: 0.0,
            alive: true,
            last_seen: self.now,
        });
        self.nodes.len() - 1
    }

    /// Undo the last [`Self::add_node`]: a join that never reached a ring
    /// gives its slot back, and the next joiner gets its id.
    pub fn remove_last_node(&mut self) {
        self.nodes.pop();
    }
}

impl FinishEstimator for ServerStats {
    fn estimate(&self, server: ServerId, work: f64) -> f64 {
        let st = &self.nodes[server];
        let speed = st.speed.get_or(self.default_speed);
        self.now + (st.outstanding_work + work) / speed
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn alive(&self, server: ServerId) -> bool {
        self.nodes[server].alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_speed_before_observations() {
        let st = ServerStats::new(2, 4.0, 0.2);
        assert_eq!(st.speed_estimate(0), 4.0);
        assert!((st.estimate(0, 1.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn speed_learned_from_completions() {
        let mut st = ServerStats::new(1, 1.0, 0.5);
        // node processes 0.1 work in 0.01 s → speed 10
        for _ in 0..40 {
            st.on_complete(0, 0.1, 0.01);
        }
        assert!((st.speed_estimate(0) - 10.0).abs() < 0.01);
    }

    #[test]
    fn outstanding_work_queues_up() {
        let mut st = ServerStats::new(1, 2.0, 0.2);
        st.on_dispatch(0, 0.5);
        st.on_dispatch(0, 0.5);
        // queue of 1.0 work at speed 2 → 0.5s drain + new work
        assert!((st.estimate(0, 1.0) - 1.0).abs() < 1e-12);
        st.on_complete(0, 0.5, 0.25);
        assert!((st.outstanding(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timeout_marks_dead_and_recovery_revives() {
        let mut st = ServerStats::new(2, 1.0, 0.2);
        st.on_timeout(1);
        assert!(!st.alive(1));
        assert!(st.alive(0));
        st.on_alive(1);
        assert!(st.alive(1));
    }

    #[test]
    fn estimate_advances_with_clock() {
        let mut st = ServerStats::new(1, 1.0, 0.2);
        let e0 = st.estimate(0, 1.0);
        st.set_now(10.0);
        assert!((st.estimate(0, 1.0) - e0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_proc_time_ignored() {
        let mut st = ServerStats::new(1, 3.0, 0.2);
        st.on_complete(0, 0.1, 0.0);
        assert_eq!(st.speed_estimate(0), 3.0); // unchanged
    }

    #[test]
    fn add_node_extends_fleet() {
        let mut st = ServerStats::new(2, 1.0, 0.2);
        let id = st.add_node();
        assert_eq!(id, 2);
        assert_eq!(st.n(), 3);
        assert!(st.alive(2));
    }
}
