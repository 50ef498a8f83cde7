//! Turn-count instrumentation for the Lemma 13 experiment.
//!
//! Lemma 13 bounds `H_{t,τ}` — the number of direction changes an agent
//! performs in the window `[t, t + τ]` — by `4·log n / log(L/(vτ))` w.h.p.
//! [`TurnRecorder`] collects per-agent direction-change timestamps during a
//! simulation and answers windowed count queries afterwards.

/// Records direction-change timestamps per agent and answers
/// `H_{t,τ}`-style window queries.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::TurnRecorder;
///
/// let mut rec = TurnRecorder::new(2);
/// rec.record(0, 3, 1);
/// rec.record(0, 5, 2);
/// rec.record(1, 10, 1);
/// assert_eq!(rec.count_in_window(0, 3, 2), 3); // turns in [3, 5]
/// assert_eq!(rec.count_in_window(0, 6, 4), 0);
/// assert_eq!(rec.max_in_window(4), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TurnRecorder {
    /// For each agent, the (sorted) time steps at which direction changes
    /// occurred, repeated per change in the same step.
    timestamps: Vec<Vec<u32>>,
}

impl TurnRecorder {
    /// Creates a recorder for `num_agents` agents.
    pub fn new(num_agents: usize) -> TurnRecorder {
        TurnRecorder {
            timestamps: vec![Vec::new(); num_agents],
        }
    }

    /// Number of tracked agents.
    pub fn num_agents(&self) -> usize {
        self.timestamps.len()
    }

    /// The recorded (sorted) direction-change timestamps of one agent,
    /// for checkpointing.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn agent_timestamps(&self, agent: usize) -> &[u32] {
        &self.timestamps[agent]
    }

    /// Reconstructs a recorder from per-agent timestamp lists (the inverse
    /// of [`TurnRecorder::agent_timestamps`], used by checkpoint
    /// restore). Returns `None` when any agent's list is not
    /// nondecreasing — such data cannot have come from a recorder.
    pub fn from_timestamps(timestamps: Vec<Vec<u32>>) -> Option<TurnRecorder> {
        for ts in &timestamps {
            if ts.windows(2).any(|w| w[0] > w[1]) {
                return None;
            }
        }
        Some(TurnRecorder { timestamps })
    }

    /// Records `count` direction changes for `agent` at time step `t`.
    ///
    /// Time steps must be fed in nondecreasing order per agent (the
    /// simulation loop does this naturally).
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range or `t` precedes an already
    /// recorded timestamp for the agent.
    pub fn record(&mut self, agent: usize, t: u32, count: u32) {
        let ts = &mut self.timestamps[agent];
        if let Some(&last) = ts.last() {
            assert!(t >= last, "timestamps must be nondecreasing per agent");
        }
        for _ in 0..count {
            ts.push(t);
        }
    }

    /// Total direction changes recorded for `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn total(&self, agent: usize) -> usize {
        self.timestamps[agent].len()
    }

    /// Direction changes of `agent` within the closed window
    /// `[t, t + tau]`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn count_in_window(&self, agent: usize, t: u32, tau: u32) -> usize {
        let ts = &self.timestamps[agent];
        let lo = ts.partition_point(|&x| x < t);
        let hi = ts.partition_point(|&x| x <= t.saturating_add(tau));
        hi - lo
    }

    /// The maximum `H_{t,τ}` over *all* agents and *all* window starts,
    /// i.e. `max_a max_t count_in_window(a, t, tau)` — the quantity
    /// Lemma 13 bounds.
    ///
    /// Runs in `O(total changes)` per agent via a sliding window.
    pub fn max_in_window(&self, tau: u32) -> usize {
        let mut best = 0;
        for ts in &self.timestamps {
            let mut lo = 0usize;
            for hi in 0..ts.len() {
                // shrink until the window [ts[lo], ts[hi]] spans <= tau
                while ts[hi] - ts[lo] > tau {
                    lo += 1;
                }
                best = best.max(hi - lo + 1);
            }
        }
        best
    }

    /// The per-agent maxima of `H_{t,τ}` (same sliding window as
    /// [`TurnRecorder::max_in_window`], returned per agent).
    pub fn max_in_window_per_agent(&self, tau: u32) -> Vec<usize> {
        self.timestamps
            .iter()
            .map(|ts| {
                let mut best = 0;
                let mut lo = 0usize;
                for hi in 0..ts.len() {
                    while ts[hi] - ts[lo] > tau {
                        lo += 1;
                    }
                    best = best.max(hi - lo + 1);
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder() {
        let rec = TurnRecorder::new(3);
        assert_eq!(rec.num_agents(), 3);
        assert_eq!(rec.total(0), 0);
        assert_eq!(rec.count_in_window(0, 0, 100), 0);
        assert_eq!(rec.max_in_window(10), 0);
    }

    #[test]
    fn windowed_counts() {
        let mut rec = TurnRecorder::new(1);
        for (t, c) in [(1, 1), (4, 1), (5, 2), (9, 1)] {
            rec.record(0, t, c);
        }
        assert_eq!(rec.total(0), 5);
        assert_eq!(rec.count_in_window(0, 0, 10), 5);
        assert_eq!(rec.count_in_window(0, 4, 1), 3); // [4,5]
        assert_eq!(rec.count_in_window(0, 5, 0), 2); // exactly t=5
        assert_eq!(rec.count_in_window(0, 6, 2), 0);
        assert_eq!(rec.count_in_window(0, 9, 100), 1);
    }

    #[test]
    fn max_window_across_agents() {
        let mut rec = TurnRecorder::new(2);
        rec.record(0, 0, 1);
        rec.record(0, 10, 1);
        rec.record(1, 3, 1);
        rec.record(1, 4, 1);
        rec.record(1, 5, 1);
        assert_eq!(rec.max_in_window(2), 3); // agent 1's burst
        assert_eq!(rec.max_in_window(0), 1);
        assert_eq!(rec.max_in_window(100), 3);
        assert_eq!(rec.max_in_window_per_agent(2), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn rejects_time_going_backwards() {
        let mut rec = TurnRecorder::new(1);
        rec.record(0, 5, 1);
        rec.record(0, 4, 1);
    }

    #[test]
    fn multiple_changes_same_step() {
        let mut rec = TurnRecorder::new(1);
        rec.record(0, 7, 3);
        assert_eq!(rec.count_in_window(0, 7, 0), 3);
        assert_eq!(rec.max_in_window(0), 3);
    }
}
