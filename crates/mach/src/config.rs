//! Machine configuration — Table 1 of the paper.

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    pub size_bytes: usize,
    pub assoc: usize,
    pub block_bytes: usize,
    pub latency: u64,
}

impl CacheParams {
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.block_bytes / self.assoc).max(1)
    }
}

/// Misspeculation recovery mechanism (Table 1 default: SRX+FC).
///
/// This is the *configuration-level* selector; the simulator dispatches
/// it to a `spt_sim::RecoveryPolicy` trait object implementing the
/// actual recovery behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Selective re-execution with fast commit — the SPT mechanism: commit
    /// correct speculative results, re-execute only misspeculated
    /// instructions; if nothing was violated, commit the whole speculative
    /// state at once.
    SrxFc,
    /// Selective re-execution without the fast-commit shortcut: every
    /// speculative thread goes through the replay pipeline even when no
    /// violation occurred.
    SrxOnly,
    /// What most other speculative multithreaded architectures do (per the
    /// paper): on any violation, trash all speculation results and
    /// re-execute the entire speculative thread.
    Squash,
}

/// Register dependence checking mode (Table 1 default: value-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegCheckPolicy {
    /// A register is violated if the main thread wrote it after the
    /// fork-point (scoreboard marking), regardless of value.
    MarkBased,
    /// The "more sophisticated" check of §3.2: only registers whose value at
    /// the start-point differs from their value at the fork-point are
    /// violated.
    ValueBased,
}

/// The timing model of one in-order core and the cache hierarchy under
/// it: everything the baseline simulation reads. The SPT fabric runs every
/// core on these same parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    pub l1i: CacheParams,
    pub l1d: CacheParams,
    pub l2: CacheParams,
    pub l3: CacheParams,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Normal fetch/issue width (per core).
    pub issue_width: u64,
    /// Register-file read/write ports (informational; Table 1 lists 12).
    pub rf_ports: u64,
    /// GAg branch predictor entries.
    pub bp_entries: usize,
    /// Mispredicted-branch penalty in cycles.
    pub bp_penalty: u64,
    // Functional-unit latencies.
    pub lat_alu: u64,
    pub lat_mul: u64,
    pub lat_div: u64,
    pub lat_store: u64,
    pub lat_call: u64,
}

impl Default for CoreConfig {
    /// The Table 1 core.
    fn default() -> Self {
        CoreConfig {
            l1i: CacheParams {
                size_bytes: 16 * 1024,
                assoc: 4,
                block_bytes: 64,
                latency: 1,
            },
            l1d: CacheParams {
                size_bytes: 16 * 1024,
                assoc: 4,
                block_bytes: 64,
                latency: 1,
            },
            l2: CacheParams {
                size_bytes: 256 * 1024,
                assoc: 8,
                block_bytes: 64,
                latency: 5,
            },
            l3: CacheParams {
                size_bytes: 3 * 1024 * 1024,
                assoc: 12,
                block_bytes: 128,
                latency: 12,
            },
            mem_latency: 150,
            issue_width: 6,
            rf_ports: 12,
            bp_entries: 1024,
            bp_penalty: 5,
            lat_alu: 1,
            lat_mul: 4,
            lat_div: 12,
            lat_store: 1,
            lat_call: 1,
        }
    }
}

/// Full machine configuration: the per-core timing model plus the
/// speculation fabric around it. `MachineConfig::default()` is Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Total cores in the speculation fabric: core 0 is architectural,
    /// cores 1..N-1 run successive speculative iterations in a ring
    /// (Table 1 / the paper: 2; N>2 follows Prophet's successor ring).
    pub cores: usize,
    /// Timing model of every core (the baseline's whole machine).
    pub core: CoreConfig,
    /// Replay fetch/issue width (main core during replay).
    pub replay_width: u64,
    /// Minimum register-file copy overhead at fork, cycles.
    pub rf_copy_overhead: u64,
    /// Minimum fast-commit overhead, cycles.
    pub fast_commit_overhead: u64,
    /// Speculation result buffer entries.
    pub srb_entries: usize,
    pub recovery: RecoveryKind,
    pub reg_check: RegCheckPolicy,
}

impl Default for MachineConfig {
    /// The Table 1 configuration.
    fn default() -> Self {
        MachineConfig {
            cores: 2,
            core: CoreConfig::default(),
            replay_width: 12,
            rf_copy_overhead: 1,
            fast_commit_overhead: 5,
            srb_entries: 1024,
            recovery: RecoveryKind::SrxFc,
            reg_check: RegCheckPolicy::ValueBased,
        }
    }
}

impl MachineConfig {
    /// Render the configuration as the rows of the paper's Table 1.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        let cache = |p: &CacheParams| {
            format!(
                "{}KB, {}-way, {}B-block, {}-cycle latency",
                p.size_bytes / 1024,
                p.assoc,
                p.block_bytes,
                p.latency
            )
        };
        vec![
            (
                "Processor cores".into(),
                format!("{} Itanium2-like in-order cores", self.cores),
            ),
            ("L1 (separate I/D)".into(), cache(&self.core.l1d)),
            ("L2".into(), cache(&self.core.l2)),
            ("L3".into(), cache(&self.core.l3)),
            (
                "Memory latency".into(),
                format!("{} cycles", self.core.mem_latency),
            ),
            (
                "Normal fetch/issue width".into(),
                format!("{}", self.core.issue_width),
            ),
            (
                "Replay fetch/issue width".into(),
                format!("{}", self.replay_width),
            ),
            (
                "RF read/write ports".into(),
                format!("{}", self.core.rf_ports),
            ),
            (
                "Branch predictor".into(),
                format!("GAg with {} entries", self.core.bp_entries),
            ),
            (
                "Mispredicted branch penalty".into(),
                format!("{} cycles", self.core.bp_penalty),
            ),
            (
                "RF copy overhead".into(),
                format!("{} cycle minimum", self.rf_copy_overhead),
            ),
            (
                "Fast commit overhead".into(),
                format!("{} cycles minimum", self.fast_commit_overhead),
            ),
            (
                "Speculation result buffer size".into(),
                format!("{} entries", self.srb_entries),
            ),
            (
                "Misspeculation recovery mechanism".into(),
                match self.recovery {
                    RecoveryKind::SrxFc => {
                        "Selective re-execution with fast-commit (SRX+FC)".into()
                    }
                    RecoveryKind::SrxOnly => "Selective re-execution (SRX)".into(),
                    RecoveryKind::Squash => "Full squash and re-execute".into(),
                },
            ),
            (
                "Register dependence checking".into(),
                match self.reg_check {
                    RegCheckPolicy::ValueBased => "Value-based".into(),
                    RegCheckPolicy::MarkBased => "Mark-based".into(),
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_match_paper() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 2);
        assert_eq!(c.core.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.core.l1d.assoc, 4);
        assert_eq!(c.core.l1d.block_bytes, 64);
        assert_eq!(c.core.l1d.latency, 1);
        assert_eq!(c.core.l2.size_bytes, 256 * 1024);
        assert_eq!(c.core.l2.latency, 5);
        assert_eq!(c.core.l3.size_bytes, 3 * 1024 * 1024);
        assert_eq!(c.core.l3.assoc, 12);
        assert_eq!(c.core.l3.block_bytes, 128);
        assert_eq!(c.core.l3.latency, 12);
        assert_eq!(c.core.mem_latency, 150);
        assert_eq!(c.core.issue_width, 6);
        assert_eq!(c.replay_width, 12);
        assert_eq!(c.core.bp_entries, 1024);
        assert_eq!(c.core.bp_penalty, 5);
        assert_eq!(c.rf_copy_overhead, 1);
        assert_eq!(c.fast_commit_overhead, 5);
        assert_eq!(c.srb_entries, 1024);
        assert_eq!(c.recovery, RecoveryKind::SrxFc);
        assert_eq!(c.reg_check, RegCheckPolicy::ValueBased);
    }

    #[test]
    fn cache_sets_computed() {
        let c = MachineConfig::default();
        assert_eq!(c.core.l1d.sets(), 16 * 1024 / 64 / 4);
        assert_eq!(c.core.l3.sets(), 3 * 1024 * 1024 / 128 / 12);
    }

    #[test]
    fn table1_rows_render() {
        let rows = MachineConfig::default().table1_rows();
        assert!(rows.len() >= 14);
        let text: String = rows.iter().map(|(k, v)| format!("{k}: {v}\n")).collect();
        assert!(text.contains("2 Itanium2-like in-order cores"));
        assert!(text.contains("GAg with 1024 entries"));
        assert!(text.contains("150 cycles"));
        assert!(text.contains("SRX+FC"));
        assert!(text.contains("Value-based"));
    }

    #[test]
    fn config_debug_is_structural() {
        // The sweep engine's memo cache keys configs by their Debug
        // rendering: it must name every field that affects simulation.
        // The baseline keys on the nested core alone, so its rendering
        // must name every core field too.
        let core_fields = [
            "l1i",
            "l1d",
            "l2",
            "l3",
            "mem_latency",
            "issue_width",
            "rf_ports",
            "bp_entries",
            "bp_penalty",
            "lat_alu",
            "lat_mul",
            "lat_div",
            "lat_store",
            "lat_call",
        ];
        let core = format!("{:?}", CoreConfig::default());
        for field in core_fields {
            assert!(core.contains(field), "CoreConfig Debug missing {field}");
        }
        let dbg = format!("{:?}", MachineConfig::default());
        assert!(dbg.contains(&format!("core: {core}")), "{dbg}");
        for field in [
            "cores",
            "replay_width",
            "rf_copy_overhead",
            "fast_commit_overhead",
            "srb_entries",
            "recovery",
            "reg_check",
        ] {
            assert!(dbg.contains(field), "Debug output missing {field}");
        }
    }
}
