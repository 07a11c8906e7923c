//! The measurement window: per-op latencies grouped into slices of
//! consecutive ops, so that the reported throughput and percentiles are
//! interquartile means over slices. A host that stalls the benchmark for
//! a moment slows a few slices, not the whole figure.

use crate::stats::{self, interquartile_mean, MIN_BEYOND};
use crate::Outcome;

/// Latency samples a window collects at least (time allowing), so that
/// its p99 has [`MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100 * MIN_BEYOND;

/// Whether a window opened at `start` goes on: until `seconds` have
/// passed, and beyond that — up to twice as long — until it holds
/// [`MIN_SAMPLES`] ops.
pub fn keep_going(start: std::time::Instant, seconds: f64, samples: usize) -> bool {
    let t = start.elapsed().as_secs_f64();
    samples == 0 || t < seconds || (samples < MIN_SAMPLES && t < 2.0 * seconds)
}

/// One slice of consecutive ops of one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Ops per second over the slice.
    pub rate: f64,
    /// Median latency, µs.
    pub p50: f64,
    /// 99th-percentile latency, µs (meaningful when the slice is large
    /// enough to support it).
    pub p99: f64,
}

/// Collects one stream's ops (a connection, or a sequential client) in
/// completion order and summarises every `slice_ops` of them.
#[derive(Debug)]
pub struct Slicer {
    slice_ops: usize,
    buf: Vec<f64>,
    slice_start: f64,
    last: f64,
    /// Completed slices.
    pub slices: Vec<Slice>,
    /// Every sample, kept only when the slices are too small to support
    /// a p99 of their own.
    pub all: Vec<f64>,
}

impl Slicer {
    /// A stream whose window opens at time 0 (seconds).
    pub fn new(slice_ops: usize) -> Slicer {
        Slicer {
            slice_ops: slice_ops.max(1),
            buf: Vec::with_capacity(slice_ops.max(1)),
            slice_start: 0.0,
            last: 0.0,
            slices: Vec::with_capacity(64),
            all: Vec::new(),
        }
    }

    /// Whether slices support their own p99.
    fn slices_support_p99(&self) -> bool {
        stats::supports(self.slice_ops, 0.99)
    }

    /// Records one op that completed at `t_done` seconds after `latency_us`.
    pub fn record(&mut self, t_done: f64, latency_us: f64) {
        self.buf.push(latency_us);
        if !self.slices_support_p99() {
            self.all.push(latency_us);
        }
        self.last = t_done;
        if self.buf.len() == self.slice_ops {
            self.close();
        }
    }

    fn close(&mut self) {
        stats::sort(&mut self.buf);
        let span = (self.last - self.slice_start).max(1e-9);
        self.slices.push(Slice {
            rate: self.buf.len() as f64 / span,
            p50: stats::percentile(&self.buf, 0.5),
            p99: stats::percentile(&self.buf, 0.99),
        });
        self.buf.clear();
        self.slice_start = self.last;
    }

    /// Ops recorded so far.
    pub fn count(&self) -> usize {
        self.slices.len() * self.slice_ops + self.buf.len()
    }

    /// Ends the window. A stream without one whole slice keeps its
    /// partial slice, so every stream reports.
    pub fn finish(mut self) -> Slicer {
        if self.slices.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        self
    }
}

/// Records the end-to-end rate and latency metrics of a window:
/// throughput is the sum over streams of each stream's interquartile
/// mean (IQM) slice rate, p50 the IQM of slice medians, and p99 the IQM
/// of slice p99s when slices support one, else the p99 of all samples
/// pooled.
pub fn record(out: &mut Outcome, streams: Vec<Slicer>) {
    let streams: Vec<Slicer> = streams.into_iter().map(Slicer::finish).collect();
    let throughput: f64 = streams
        .iter()
        .map(|s| interquartile_mean(&s.slices.iter().map(|x| x.rate).collect::<Vec<_>>()))
        .sum();
    let slices: Vec<Slice> = streams
        .iter()
        .flat_map(|s| s.slices.iter().copied())
        .collect();
    let p50 = interquartile_mean(&slices.iter().map(|x| x.p50).collect::<Vec<_>>());
    let n: usize = streams.iter().map(Slicer::count).sum();
    let per_slice = streams.first().is_some_and(Slicer::slices_support_p99);
    let p99 = if per_slice {
        interquartile_mean(&slices.iter().map(|x| x.p99).collect::<Vec<_>>())
    } else {
        let mut all: Vec<f64> = streams.iter().flat_map(|s| s.all.iter().copied()).collect();
        stats::sort(&mut all);
        stats::percentile(&all, 0.99)
    };
    let v = &mut out.values;
    v.insert("throughput_ops_per_s".into(), throughput);
    v.insert("latency_p50_us".into(), p50);
    v.insert("latency_p99_us".into(), p99);
    let supported =
        stats::highest_supported(n).map_or("none".to_string(), |p| format!("p{}", p * 100.0));
    out.notes.push(format!(
        "window: {n} ops in {} slices over {} streams; p99 {} ({} samples beyond it); highest percentile supported by all samples: {supported}",
        slices.len(),
        streams.len(),
        if per_slice { "IQM of slice p99s" } else { "of all samples pooled" },
        if per_slice {
            stats::beyond(streams.first().map_or(0, |s| s.slice_ops), 0.99)
        } else {
            stats::beyond(n, 0.99)
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_summarise_consecutive_ops() {
        let mut s = Slicer::new(4);
        for i in 1..=10 {
            s.record(f64::from(i) * 0.5, f64::from(i));
        }
        let s = s.finish();
        assert_eq!(s.count(), 10);
        assert_eq!(s.slices.len(), 2, "the trailing partial slice is dropped");
        assert_eq!(
            s.slices[0],
            Slice {
                rate: 2.0,
                p50: 2.0,
                p99: 4.0
            }
        );
        assert_eq!(s.slices[1].p50, 6.0);
        // Small slices keep every sample for a pooled p99.
        assert_eq!(s.all.len(), 10);
        let big = Slicer::new(1000);
        assert!(big.slices_support_p99());
        let only = {
            let mut s = Slicer::new(1000);
            s.record(1.0, 5.0);
            s.finish()
        };
        assert_eq!(
            only.slices.len(),
            1,
            "a stream without a whole slice keeps its partial one"
        );
    }

    #[test]
    fn slice_means_resist_a_stalled_slice() {
        let mut out = Outcome::default();
        let mut s = Slicer::new(10);
        let mut t = 0.0;
        for slice in 0..5 {
            for _ in 0..10 {
                // The third slice runs ten times slower.
                let lat = if slice == 2 { 1000.0 } else { 100.0 };
                t += lat / 1e6;
                s.record(t, lat);
            }
        }
        record(&mut out, vec![s]);
        assert_eq!(out.values["latency_p50_us"], 100.0);
        assert!((out.values["throughput_ops_per_s"] - 10_000.0).abs() < 1e-6);
        // Pooled p99 of 50 samples: rank 50, inside the stalled slice.
        assert_eq!(out.values["latency_p99_us"], 1000.0);
    }
}
