//! Per-transaction latency attribution.
//!
//! [`HopBreakdown`] is the compact span stack a message carries through the
//! network: integer-picosecond accumulators for each pipeline stage a hop
//! can charge. The network schedules each hop's arrival at
//! `grant + router + wire + serialization + congestion`, so the accumulated
//! stages sum *exactly* to the end-to-end latency — no rounding, no drift.
//!
//! [`BreakdownTable`] aggregates those spans (plus memory-side stages) over
//! a whole experiment into the local/remote latency decomposition the
//! GS1280 paper presents in its Figures 4–9.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Integer-picosecond stage accumulators carried by one message from
/// injection to delivery. All-zero for a self-delivery (no network hops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopBreakdown {
    /// Time spent queued on VC buffers waiting for the output ("global")
    /// arbiter to grant the physical channel, summed over hops.
    pub queued_ps: u64,
    /// Router pipeline traversals (fixed per-hop latency), summed.
    pub router_ps: u64,
    /// Wire flight time, summed over hops.
    pub wire_ps: u64,
    /// One-time packet serialization onto the first granted channel.
    pub serialization_ps: u64,
    /// Congestion penalty charged per hop from the backlog model.
    pub congestion_ps: u64,
}

impl HopBreakdown {
    /// Sum of every stage — equals delivery latency exactly for a message
    /// that was never evicted off a failed link mid-route.
    pub fn total_ps(&self) -> u64 {
        self.queued_ps + self.router_ps + self.wire_ps + self.serialization_ps + self.congestion_ps
    }

    /// Accumulate another breakdown (e.g. merging legs of a transaction).
    pub fn add(&mut self, other: &HopBreakdown) {
        self.queued_ps += other.queued_ps;
        self.router_ps += other.router_ps;
        self.wire_ps += other.wire_ps;
        self.serialization_ps += other.serialization_ps;
        self.congestion_ps += other.congestion_ps;
    }
}

/// One named stage of the aggregate decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StageEntry {
    stage: String,
    total_ps: u64,
}

/// An aggregate per-stage latency decomposition over many transactions.
///
/// Stages keep their **first-use order** (the pipeline order the
/// instrumentation site establishes), not lexicographic order, so the table
/// reads top-to-bottom like the transaction's life. Merging tables built
/// by different sweep workers matches stages by name; all workers run the
/// same instrumentation code, so first-use order is identical and the merge
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakdownTable {
    stages: Vec<StageEntry>,
    transactions: u64,
    end_to_end_ps: u64,
}

impl BreakdownTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `ps` picoseconds to a named stage.
    pub fn charge(&mut self, stage: &str, ps: u64) {
        if let Some(e) = self.stages.iter_mut().find(|e| e.stage == stage) {
            e.total_ps += ps;
        } else {
            self.stages.push(StageEntry {
                stage: stage.to_owned(),
                total_ps: ps,
            });
        }
    }

    /// Charge `ps` picoseconds to the stage in row `index` (rows in
    /// first-use order): the by-row path for a caller that charged its
    /// stages once, in a known order, before the hot loop.
    ///
    /// # Panics
    ///
    /// Panics if the table has no row `index`.
    pub fn charge_at(&mut self, index: usize, ps: u64) {
        self.stages[index].total_ps += ps;
    }

    /// Close out one transaction whose end-to-end latency was `e2e_ps`.
    pub fn complete_transaction(&mut self, e2e_ps: u64) {
        self.transactions += 1;
        self.end_to_end_ps += e2e_ps;
    }

    /// Number of completed transactions.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total end-to-end picoseconds across all completed transactions.
    pub fn end_to_end_ps(&self) -> u64 {
        self.end_to_end_ps
    }

    /// Sum of every stage's charged picoseconds. Equal to
    /// [`end_to_end_ps`](Self::end_to_end_ps) when the instrumentation
    /// charges a residual stage (and exactly, since everything is integer).
    pub fn charged_ps(&self) -> u64 {
        self.stages.iter().map(|e| e.total_ps).sum()
    }

    /// Total picoseconds charged to one stage (0 if absent).
    pub fn stage_ps(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .find(|e| e.stage == stage)
            .map_or(0, |e| e.total_ps)
    }

    /// Merge another table: stages match by name, unseen stages append in
    /// the other table's order; transaction and end-to-end totals add.
    pub fn merge(&mut self, other: &BreakdownTable) {
        for e in &other.stages {
            self.charge(&e.stage, e.total_ps);
        }
        self.transactions += other.transactions;
        self.end_to_end_ps += other.end_to_end_ps;
    }

    /// JSON snapshot: stage list in table order with per-transaction means,
    /// plus the totals the exactness check compares.
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|e| {
                json!({
                    "stage": e.stage,
                    "total_ps": e.total_ps,
                    "mean_ns_per_tx": self.mean_ns(e.total_ps),
                    "share_pct": self.share_pct(e.total_ps),
                })
            })
            .collect();
        json!({
            "transactions": self.transactions,
            "end_to_end_ps": self.end_to_end_ps,
            "charged_ps": self.charged_ps(),
            "mean_end_to_end_ns": self.mean_ns(self.end_to_end_ps),
            "stages": stages,
        })
    }

    /// Human-readable table, one stage per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "per-hop latency attribution ({} transactions, mean end-to-end {:.1} ns)\n",
            self.transactions,
            self.mean_ns(self.end_to_end_ps)
        ));
        out.push_str(&format!(
            "{:<34} {:>14} {:>12} {:>8}\n",
            "stage", "total (ns)", "mean ns/tx", "share"
        ));
        for e in &self.stages {
            out.push_str(&format!(
                "{:<34} {:>14.1} {:>12.2} {:>7.2}%\n",
                e.stage,
                e.total_ps as f64 / 1e3,
                self.mean_ns(e.total_ps),
                self.share_pct(e.total_ps)
            ));
        }
        out.push_str(&format!(
            "{:<34} {:>14.1} {:>12.2} {:>7.2}%\n",
            "(sum of stages)",
            self.charged_ps() as f64 / 1e3,
            self.mean_ns(self.charged_ps()),
            self.share_pct(self.charged_ps())
        ));
        out
    }

    fn mean_ns(&self, total_ps: u64) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            total_ps as f64 / self.transactions as f64 / 1e3
        }
    }

    fn share_pct(&self, total_ps: u64) -> f64 {
        if self.end_to_end_ps == 0 {
            0.0
        } else {
            total_ps as f64 * 100.0 / self.end_to_end_ps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_breakdown_total_sums_stages() {
        let b = HopBreakdown {
            queued_ps: 1,
            router_ps: 2,
            wire_ps: 3,
            serialization_ps: 4,
            congestion_ps: 5,
        };
        assert_eq!(b.total_ps(), 15);
        let mut c = b;
        c.add(&b);
        assert_eq!(c.total_ps(), 30);
    }

    #[test]
    fn table_keeps_first_use_order_and_exact_sums() {
        let mut t = BreakdownTable::new();
        t.charge("request: wire", 10);
        t.charge("zbox: dram", 30);
        t.charge("request: wire", 5);
        t.complete_transaction(45);
        assert_eq!(t.stage_ps("request: wire"), 15);
        assert_eq!(t.charged_ps(), 45);
        assert_eq!(t.end_to_end_ps(), 45);
        let text = t.to_text();
        let wire = text.find("request: wire").expect("stage listed");
        let dram = text.find("zbox: dram").expect("stage listed");
        assert!(wire < dram, "first-use order expected:\n{text}");
    }

    #[test]
    fn charge_at_adds_to_the_row_charge_named() {
        let mut by_row = BreakdownTable::new();
        let mut by_name = BreakdownTable::new();
        for t in [&mut by_row, &mut by_name] {
            t.charge("s1", 0);
            t.charge("s2", 0);
        }
        by_row.charge_at(1, 7);
        by_row.charge_at(0, 3);
        by_row.charge_at(1, 2);
        by_name.charge("s2", 7);
        by_name.charge("s1", 3);
        by_name.charge("s2", 2);
        assert_eq!(by_row, by_name);
        assert_eq!(by_row.stage_ps("s2"), 9);
    }

    #[test]
    fn merge_matches_single_table() {
        let mut a = BreakdownTable::new();
        a.charge("s1", 10);
        a.complete_transaction(10);
        let mut b = BreakdownTable::new();
        b.charge("s1", 4);
        b.charge("s2", 6);
        b.complete_transaction(10);
        let mut whole = BreakdownTable::new();
        whole.charge("s1", 14);
        whole.charge("s2", 6);
        whole.complete_transaction(10);
        whole.complete_transaction(10);
        a.merge(&b);
        assert_eq!(a.transactions(), 2);
        assert_eq!(a.end_to_end_ps(), 20);
        assert_eq!(a.charged_ps(), 20);
        assert_eq!(a.stage_ps("s1"), whole.stage_ps("s1"));
        assert_eq!(a.stage_ps("s2"), whole.stage_ps("s2"));
    }
}
