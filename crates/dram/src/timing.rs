//! The DRAM timing/energy model implementation.

/// Configuration of the DRAM channel.
///
/// All timings are in accelerator core cycles (1 GHz in the paper's
/// setup), so a 64 GB/s channel moves 64 bytes per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak bandwidth in bytes per core cycle (GB/s at 1 GHz).
    pub bytes_per_cycle: f64,
    /// Burst (minimum transfer) size in bytes.
    pub burst_bytes: u64,
    /// Row-buffer (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Number of banks.
    pub banks: usize,
    /// Row-activate latency (tRCD) in cycles.
    pub t_rcd: u64,
    /// Precharge latency (tRP) in cycles.
    pub t_rp: u64,
    /// Column access latency (tCAS) in cycles, exposed on the first burst
    /// after an activation.
    pub t_cas: u64,
    /// Controller lookahead window in cycles: how far ahead an activation
    /// for a *different* bank can start.
    pub lookahead: u64,
    /// Energy per row activation (activate + precharge), picojoules.
    pub act_energy_pj: f64,
    /// Read energy per byte transferred, picojoules.
    pub read_energy_pj_per_byte: f64,
    /// Background power in picojoules per cycle (standby + refresh).
    pub background_pj_per_cycle: f64,
}

impl DramConfig {
    /// The paper's setup: 64 GB/s at 1 GHz, DDR-like timings, 16 banks,
    /// 2 KiB rows, 64 B bursts.
    ///
    /// Energy constants are DDR4-class: ~2 nJ per activate/precharge pair,
    /// ~20 pJ/bit read ⇒ 2.5 pJ/byte × 8 = 20 pJ/byte? We use 15 pJ/byte
    /// (interface + core), and ~100 mW background ⇒ 100 pJ/cycle at 1 GHz.
    pub fn paper_default() -> Self {
        DramConfig {
            bytes_per_cycle: 64.0,
            burst_bytes: 64,
            row_bytes: 2048,
            banks: 16,
            t_rcd: 15,
            t_rp: 15,
            t_cas: 15,
            lookahead: 48,
            act_energy_pj: 2000.0,
            read_energy_pj_per_byte: 15.0,
            background_pj_per_cycle: 100.0,
        }
    }

    /// The paper default scaled to a different peak bandwidth in GB/s
    /// (Fig. 15(c) sweeps 32–512 GB/s).
    pub fn with_bandwidth_gbps(gbps: f64) -> Self {
        DramConfig {
            bytes_per_cycle: gbps,
            ..Self::paper_default()
        }
    }

    /// Cycles to transfer one burst at peak bandwidth.
    fn burst_cycles(&self) -> f64 {
        self.burst_bytes as f64 / self.bytes_per_cycle
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics when sizes are zero or the row is smaller than a burst.
    pub fn validate(&self) {
        assert!(self.bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(self.burst_bytes > 0, "burst size must be positive");
        assert!(
            self.row_bytes >= self.burst_bytes,
            "row must hold >= 1 burst"
        );
        assert!(self.banks > 0, "need at least one bank");
    }
}

/// Result of replaying an access trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramResult {
    /// Total cycles the channel was occupied (including exposed stalls).
    pub cycles: u64,
    /// Useful bytes the consumer asked for.
    pub useful_bytes: u64,
    /// Bytes actually moved (burst-quantized).
    pub transferred_bytes: u64,
    /// Row-buffer hits (bursts served from an open row).
    pub row_hits: u64,
    /// Row activations (misses).
    pub row_misses: u64,
    /// Total DRAM energy in picojoules.
    pub energy_pj: f64,
    /// Peak bytes/cycle of the configuration (for utilization).
    pub peak_bytes_per_cycle: f64,
}

impl DramResult {
    /// Achieved *useful* bandwidth divided by peak bandwidth — the paper's
    /// bandwidth-utilization metric (challenge 2).
    ///
    /// Returns 1.0 for an empty replay.
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / (self.cycles as f64 * self.peak_bytes_per_cycle)
    }

    /// Fraction of moved bytes that were useful (1 − read amplification).
    pub fn transfer_efficiency(&self) -> f64 {
        if self.transferred_bytes == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / self.transferred_bytes as f64
    }

    /// Row-buffer hit rate over all bursts.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 1.0;
        }
        self.row_hits as f64 / total as f64
    }
}

/// The replayable DRAM channel model.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    /// Open row per bank (`None` = precharged).
    open_row: Vec<Option<u64>>,
    /// Earliest cycle each bank can serve a new burst.
    bank_ready: Vec<f64>,
}

impl DramModel {
    /// Creates a model with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(config: DramConfig) -> Self {
        config.validate();
        DramModel {
            open_row: vec![None; config.banks],
            bank_ready: vec![0.0; config.banks],
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Resets bank state (between independent experiments).
    pub fn reset(&mut self) {
        self.open_row.fill(None);
        self.bank_ready.fill(0.0);
    }

    /// Maps a byte address to `(bank, row)`.
    ///
    /// Consecutive DRAM rows land in different banks (row interleaving), so
    /// sequential streams exploit bank-level parallelism.
    fn map(&self, addr: u64) -> (usize, u64) {
        let row_global = addr / self.config.row_bytes;
        let bank = (row_global % self.config.banks as u64) as usize;
        let row = row_global / self.config.banks as u64;
        (bank, row)
    }

    /// Replays a sequence of `(address, bytes)` read requests in order and
    /// returns the timing/energy result.
    ///
    /// The model is stateful: call [`DramModel::reset`] between unrelated
    /// traces.
    pub fn replay(&mut self, requests: impl IntoIterator<Item = (u64, u64)>) -> DramResult {
        let cfg = self.config;
        let burst_cycles = cfg.burst_cycles();
        let mut time = 0.0f64; // channel time in cycles
                               // The controller's read-combine buffer: a burst already fetched by
                               // the immediately preceding request is served for free, so
                               // back-to-back sub-burst requests (e.g. DDC's per-block reads)
                               // coalesce into a stream instead of re-fetching bursts.
        let mut last_burst: Option<u64> = None;
        let mut result = DramResult {
            peak_bytes_per_cycle: cfg.bytes_per_cycle,
            ..DramResult::default()
        };

        for (addr, bytes) in requests {
            if bytes == 0 {
                continue;
            }
            result.useful_bytes += bytes;
            // Burst-quantize the request.
            let first = addr / cfg.burst_bytes;
            let last = (addr + bytes - 1) / cfg.burst_bytes;
            for burst in first..=last {
                if Some(burst) == last_burst {
                    continue; // coalesced with the previous request
                }
                last_burst = Some(burst);
                let burst_addr = burst * cfg.burst_bytes;
                let (bank, row) = self.map(burst_addr);
                let hit = self.open_row[bank] == Some(row);
                if hit {
                    result.row_hits += 1;
                } else {
                    result.row_misses += 1;
                    result.energy_pj += cfg.act_energy_pj;
                    // Activation may start up to `lookahead` cycles before
                    // the channel needs the data, but never before the bank
                    // itself is free.
                    let act_start = (time - cfg.lookahead as f64).max(self.bank_ready[bank]);
                    let penalty = (cfg.t_rp + cfg.t_rcd + cfg.t_cas) as f64;
                    self.bank_ready[bank] = act_start + penalty;
                    self.open_row[bank] = Some(row);
                }
                // The transfer starts when both the channel and the bank
                // are ready.
                let start = time.max(self.bank_ready[bank]);
                time = start + burst_cycles;
                self.bank_ready[bank] = time;
                result.transferred_bytes += cfg.burst_bytes;
                result.energy_pj += cfg.read_energy_pj_per_byte * cfg.burst_bytes as f64;
            }
        }

        result.cycles = time.ceil() as u64;
        result.energy_pj += cfg.background_pj_per_cycle * result.cycles as f64;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sequential(total_bytes: u64, req: u64) -> Vec<(u64, u64)> {
        (0..total_bytes / req).map(|i| (i * req, req)).collect()
    }

    fn scattered(n: u64, req: u64, stride: u64) -> Vec<(u64, u64)> {
        // Large prime-ish stride defeats row locality.
        (0..n).map(|i| ((i * stride) % (1 << 30), req)).collect()
    }

    #[test]
    fn sequential_stream_near_peak() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay(sequential(1 << 20, 64));
        assert!(
            res.bandwidth_utilization() > 0.9,
            "{}",
            res.bandwidth_utilization()
        );
        assert!(res.row_hit_rate() > 0.9, "{}", res.row_hit_rate());
        assert_eq!(res.transfer_efficiency(), 1.0);
    }

    #[test]
    fn scattered_small_reads_waste_bandwidth() {
        // 16-byte useful reads: 75% of each burst is wasted, and row
        // locality is gone -> utilization in the CSR-like regime (<40%).
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay(scattered(16384, 16, 8192 + 64));
        assert!(
            res.bandwidth_utilization() < 0.4,
            "scattered utilization {}",
            res.bandwidth_utilization()
        );
        assert!(res.transfer_efficiency() <= 0.25 + 1e-9);
    }

    #[test]
    fn sequential_beats_scattered() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let seq = dram.replay(sequential(1 << 20, 64));
        dram.reset();
        let sc = dram.replay(scattered(16384, 64, 8192 + 64));
        assert!(seq.cycles < sc.cycles);
        assert!(seq.energy_pj < sc.energy_pj);
    }

    #[test]
    fn burst_quantization_counts_whole_bursts() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay([(0u64, 1u64)]);
        assert_eq!(res.transferred_bytes, 64);
        assert_eq!(res.useful_bytes, 1);
    }

    #[test]
    fn request_spanning_bursts() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        // 100 bytes starting at 32 spans bursts 0 and 1 and part of 2.
        let res = dram.replay([(32u64, 100u64)]);
        assert_eq!(res.transferred_bytes, 3 * 64);
    }

    #[test]
    fn empty_replay_is_free() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay(std::iter::empty());
        assert_eq!(res.cycles, 0);
        assert_eq!(res.bandwidth_utilization(), 1.0);
    }

    #[test]
    fn zero_byte_requests_ignored() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay([(0u64, 0u64)]);
        assert_eq!(res.cycles, 0);
        assert_eq!(res.transferred_bytes, 0);
    }

    #[test]
    fn higher_bandwidth_fewer_cycles() {
        let trace = sequential(1 << 20, 64);
        let mut slow = DramModel::new(DramConfig::with_bandwidth_gbps(32.0));
        let mut fast = DramModel::new(DramConfig::with_bandwidth_gbps(256.0));
        let s = slow.replay(trace.iter().copied());
        let f = fast.replay(trace.iter().copied());
        assert!(
            f.cycles * 4 < s.cycles,
            "fast {} slow {}",
            f.cycles,
            s.cycles
        );
    }

    #[test]
    fn same_bank_conflicts_serialize() {
        // Ping-pong between two rows of the SAME bank: every access is a
        // miss the lookahead cannot hide (bank busy with the other row).
        let cfg = DramConfig::paper_default();
        let bank_stride = cfg.row_bytes * cfg.banks as u64; // same bank, next row
        let trace: Vec<(u64, u64)> = (0..512)
            .map(|i| (if i % 2 == 0 { 0 } else { bank_stride }, 64))
            .collect();
        let mut dram = DramModel::new(cfg);
        let res = dram.replay(trace);
        assert!(res.row_hit_rate() < 0.01);
        assert!(
            res.bandwidth_utilization() < 0.1,
            "{}",
            res.bandwidth_utilization()
        );
    }

    #[test]
    fn reset_clears_open_rows() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let _ = dram.replay([(0u64, 64u64)]);
        dram.reset();
        let res = dram.replay([(0u64, 64u64)]);
        assert_eq!(res.row_misses, 1, "row must be re-activated after reset");
    }

    #[test]
    fn energy_has_background_component() {
        let mut dram = DramModel::new(DramConfig::paper_default());
        let res = dram.replay(sequential(1 << 16, 64));
        let transfer = res.transferred_bytes as f64 * 15.0;
        assert!(res.energy_pj > transfer, "background + activation included");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn invalid_config_rejected() {
        let mut cfg = DramConfig::paper_default();
        cfg.bytes_per_cycle = 0.0;
        let _ = DramModel::new(cfg);
    }

    proptest! {
        #[test]
        fn utilization_bounded(reqs in proptest::collection::vec((0u64..1_000_000, 1u64..512), 1..200)) {
            let mut dram = DramModel::new(DramConfig::paper_default());
            let res = dram.replay(reqs.iter().copied());
            prop_assert!(res.bandwidth_utilization() <= 1.0 + 1e-9);
            prop_assert!(res.transferred_bytes >= res.useful_bytes);
            prop_assert!(res.cycles >= (res.transferred_bytes as f64 / 64.0) as u64);
        }

        #[test]
        fn cycles_monotone_in_traffic(n in 1u64..100) {
            let mut dram = DramModel::new(DramConfig::paper_default());
            let small = dram.replay(sequential(n * 64, 64));
            dram.reset();
            let large = dram.replay(sequential((n + 10) * 64, 64));
            prop_assert!(large.cycles >= small.cycles);
        }
    }
}
