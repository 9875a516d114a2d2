//! A timing [`CsrShardSource`] adapter: wraps a shard source, counts its
//! passes and shards, and times every `next_shard` call (also as a span).
//! Wrapped around the disk reader it measures decode; wrapped around the
//! prefetching source it measures how long the pipeline waits for shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ivmf_interval::{CsrIntervalShard, CsrShardSource};

use crate::trace;

/// Counters shared between an adapter (possibly on the prefetch thread)
/// and the benchmark.
#[derive(Debug, Default)]
pub struct SourceStats {
    resets: AtomicU64,
    shards: AtomicU64,
    nanos: AtomicU64,
}

impl SourceStats {
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }
    pub fn shards(&self) -> u64 {
        self.shards.load(Ordering::Relaxed)
    }
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

pub struct TimedSource<S> {
    inner: S,
    span: &'static str,
    stats: Arc<SourceStats>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, span: &'static str) -> (Self, Arc<SourceStats>) {
        let stats = Arc::new(SourceStats::default());
        let source = TimedSource {
            inner,
            span,
            stats: Arc::clone(&stats),
        };
        (source, stats)
    }
}

impl<S: CsrShardSource> CsrShardSource for TimedSource<S> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn reset(&mut self) -> ivmf_interval::Result<()> {
        self.stats.resets.fetch_add(1, Ordering::Relaxed);
        self.inner.reset()
    }

    fn next_shard(&mut self) -> ivmf_interval::Result<Option<CsrIntervalShard>> {
        let _span = trace::span(self.span);
        let t = Instant::now();
        let shard = self.inner.next_shard();
        self.stats
            .nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(Some(_)) = &shard {
            self.stats.shards.fetch_add(1, Ordering::Relaxed);
        }
        shard
    }
}
