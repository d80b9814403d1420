//! Figure 17 (beyond the paper): the placement service under overload.
//!
//! Drives `pandiad` at arrival rates past what the fleet can absorb and
//! compares three queue policies over the *identical* seeded stream:
//!
//! * **naive** — the unbounded queue: every submission is admitted and
//!   waits forever, so backlog (and per-event work) grows with load;
//! * **admission** — a hard depth cap: submissions bounce at the door
//!   once `max_depth` jobs are queued, stale ones are deadline-shed;
//! * **shedding** — high-water overflow shedding with degraded-mode
//!   memo halving plus the deadline. (Because shedding restores the
//!   queue below the high-water mark after every event, admission
//!   rejections and overflow shedding are mutually exclusive per
//!   policy — hence two bounded modes.)
//!
//! For each arrival bias the experiment reports per-event wall-latency
//! percentiles, throughput (completed vs. rejected/shed), and the
//! bounded-memory counters (memo occupancy vs. capacity, evictions). It
//! also cross-checks the audit ledger against the queue state — every
//! submission event must be accounted for as completed, failed,
//! rejected, shed, or still live — so the overload counters can be
//! trusted downstream.

use std::time::Instant;

use pandia_core::ExecContext;
use pandia_daemon::{generate_events_with_rate, Daemon, DaemonConfig, FleetPreset, QueuePolicy};
use pandia_sim::FaultPlan;
use serde::{Deserialize, Serialize};

use super::ExpResult;
use pandia_core::PandiaError;

/// Arrival biases swept by the experiment: the fraction of stream events
/// that are submissions. 0.55 is the daemon's nominal rate; 0.90 is
/// roughly twice what a small fleet can drain.
pub const ARRIVAL_BIASES: [f64; 3] = [0.55, 0.75, 0.90];

/// Solve-memo capacity used for both modes — small enough that the
/// bounded-memory path (LRU eviction, degraded-mode halving) is actually
/// exercised at overload.
pub const MEMO_CAPACITY: usize = 64;

/// One (arrival bias, queue policy) measurement. `mode` is `"naive"`,
/// `"admission"`, or `"shedding"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadCell {
    /// Fraction of events that are submissions.
    pub bias: f64,
    /// Queue policy the stream was replayed under.
    pub mode: String,
    /// Events replayed.
    pub events: usize,
    /// Jobs completed over the stream.
    pub completed: u64,
    /// Jobs that exhausted their placement attempts.
    pub failed: u64,
    /// Submissions bounced at admission (queue full).
    pub rejected: u64,
    /// Queued jobs dropped by overflow/deadline shedding.
    pub shed: u64,
    /// Faulted placements that were re-queued with backoff.
    pub retries: u64,
    /// Queue depth when the stream ended.
    pub final_depth: usize,
    /// Whether the daemon ended the stream in degraded mode.
    pub degraded: bool,
    /// Median per-event wall latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile per-event wall latency (microseconds).
    pub p99_us: f64,
    /// Solve-memo entries when the stream ended.
    pub memo_len: usize,
    /// Solve-memo capacity when the stream ended (halved in degraded
    /// mode).
    pub memo_capacity: usize,
    /// Solve-memo LRU evictions over the stream.
    pub memo_evictions: u64,
}

/// Full overload-sweep results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadResult {
    /// Synthetic fleet size.
    pub machines: usize,
    /// Stream length per bias.
    pub events: usize,
    /// Stream seed.
    pub seed: u64,
    /// One cell per (bias, mode): naive, admission, shedding.
    pub cells: Vec<OverloadCell>,
}

/// A percentile (by nearest-rank) of an unsorted sample, in place.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The admission-control policy: a hard depth cap plus a deadline (no
/// high-water shedding, so the queue can actually fill and reject).
pub fn admission_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 12, deadline: Some(24), ..QueuePolicy::default() }
}

/// The backpressure policy: overflow shedding with degraded-mode
/// hysteresis plus the deadline, tuned for a small synthetic fleet.
pub fn shedding_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 64, high_water: 8, deadline: Some(24) }
}

/// Replays one stream through a fresh daemon under `queue`, timing each
/// event, and cross-checks the audit ledger against the final queue
/// state before reporting.
fn replay(
    preset: &FleetPreset,
    exec: &ExecContext,
    events: &[pandia_daemon::Event],
    seed: u64,
    queue: QueuePolicy,
) -> ExpResult<(Daemon, Vec<f64>)> {
    let config = DaemonConfig {
        seed,
        exec: exec.clone(),
        faults: FaultPlan::with_intensity(0.5),
        queue,
        memo_capacity: MEMO_CAPACITY,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(preset.machines.clone(), preset.catalog.clone(), config)?;
    let mut latencies = Vec::with_capacity(events.len());
    for event in events {
        let start = Instant::now();
        daemon.apply(event)?;
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
    }
    reconcile(&daemon, events)?;
    Ok((daemon, latencies))
}

/// Every submission event must be accounted for: admitted submissions
/// end up completed, failed, shed, or still live (queued/running);
/// rejected ones bounced at the door. The memo must respect its cap.
fn reconcile(daemon: &Daemon, events: &[pandia_daemon::Event]) -> ExpResult<()> {
    let submissions = events
        .iter()
        .filter(|e| matches!(e, pandia_daemon::Event::Submit { .. }))
        .count() as u64;
    let audit = daemon.audit();
    let check = |ok: bool, reason: String| {
        if ok {
            Ok(())
        } else {
            Err(PandiaError::Mismatch { reason })
        }
    };
    check(
        audit.submitted + audit.rejected == submissions,
        format!(
            "admitted {} + rejected {} != {} submission events",
            audit.submitted, audit.rejected, submissions
        ),
    )?;
    let live = (daemon.queued() + daemon.running()) as u64;
    check(
        audit.completed + audit.failed + audit.shed + live == audit.submitted,
        format!(
            "completed {} + failed {} + shed {} + live {live} != admitted {}",
            audit.completed, audit.failed, audit.shed, audit.submitted
        ),
    )?;
    check(
        daemon.memo_len() <= daemon.memo_capacity(),
        format!("memo {} over capacity {}", daemon.memo_len(), daemon.memo_capacity()),
    )
}

/// Runs the sweep: each arrival bias replayed under both queue policies
/// over a synthetic fleet of `machines` machines.
pub fn run(
    exec: &ExecContext,
    machines: usize,
    events: usize,
    biases: &[f64],
    seed: u64,
) -> ExpResult<OverloadResult> {
    let _span = pandia_obs::span("harness", "fig17_overload").arg("machines", machines);
    let preset = pandia_daemon::synthetic(machines);
    let classes: Vec<&str> = preset.catalog.keys().map(String::as_str).collect();
    let mut cells = Vec::new();
    for &bias in biases {
        let stream = generate_events_with_rate(seed, events, &classes, bias);
        for (queue, mode) in [
            (QueuePolicy::default(), "naive"),
            (admission_policy(), "admission"),
            (shedding_policy(), "shedding"),
        ] {
            let (daemon, mut latencies) = replay(&preset, exec, &stream, seed, queue)?;
            let audit = daemon.audit();
            let stats = daemon.fleet_stats();
            cells.push(OverloadCell {
                bias,
                mode: mode.to_string(),
                events,
                completed: audit.completed,
                failed: audit.failed,
                rejected: audit.rejected,
                shed: audit.shed,
                retries: audit.retries,
                final_depth: daemon.queued(),
                degraded: daemon.degraded(),
                p50_us: percentile(&mut latencies, 50.0),
                p99_us: percentile(&mut latencies, 99.0),
                memo_len: daemon.memo_len(),
                memo_capacity: daemon.memo_capacity(),
                memo_evictions: stats.memo_evictions,
            });
        }
    }
    Ok(OverloadResult { machines, events, seed, cells })
}

/// Renders the result as an aligned text table.
pub fn render(result: &OverloadResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "placement service under overload ({} synthetic machines, {} events/stream, seed {:#x})\n\n",
        result.machines, result.events, result.seed
    ));
    out.push_str(&format!(
        "{:>5} {:<9} {:>5} {:>5} {:>5} {:>5} {:>6} {:>4} {:>10} {:>10} {:>9} {:>5}\n",
        "bias", "mode", "done", "fail", "rej", "shed", "depth", "deg", "p50(us)", "p99(us)",
        "memo", "evict"
    ));
    for c in &result.cells {
        out.push_str(&format!(
            "{:>5.2} {:<9} {:>5} {:>5} {:>5} {:>5} {:>6} {:>4} {:>10.1} {:>10.1} {:>4}/{:<4} {:>5}\n",
            c.bias,
            c.mode,
            c.completed,
            c.failed,
            c.rejected,
            c.shed,
            c.final_depth,
            if c.degraded { "yes" } else { "no" },
            c.p50_us,
            c.p99_us,
            c.memo_len,
            c.memo_capacity,
            c.memo_evictions
        ));
    }
    out
}

/// Renders the result as CSV.
pub fn to_csv(result: &OverloadResult) -> String {
    let mut out = String::from(
        "bias,mode,events,completed,failed,rejected,shed,retries,final_depth,degraded,\
         p50_us,p99_us,memo_len,memo_capacity,memo_evictions\n",
    );
    for c in &result.cells {
        out.push_str(&format!(
            "{:.2},{},{},{},{},{},{},{},{},{},{:.1},{:.1},{},{},{}\n",
            c.bias,
            c.mode,
            c.events,
            c.completed,
            c.failed,
            c.rejected,
            c.shed,
            c.retries,
            c.final_depth,
            c.degraded as u8,
            c.p50_us,
            c.p99_us,
            c.memo_len,
            c.memo_capacity,
            c.memo_evictions
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_sweep_sheds_and_stays_bounded() {
        let exec = ExecContext::serial();
        let result = run(&exec, 2, 250, &[0.90], 0xF17).unwrap();
        assert_eq!(result.cells.len(), 3);
        let naive = &result.cells[0];
        let admission = &result.cells[1];
        let shedding = &result.cells[2];
        assert_eq!(naive.mode, "naive");
        assert_eq!(admission.mode, "admission");
        assert_eq!(shedding.mode, "shedding");
        // The unbounded queue admits everything and lets backlog grow;
        // the bounded policies actually bounce and shed.
        assert_eq!(naive.rejected + naive.shed, 0, "{naive:?}");
        assert!(admission.rejected > 0, "{admission:?}");
        assert!(shedding.shed > 0, "{shedding:?}");
        assert!(admission.final_depth <= admission_policy().max_depth);
        assert!(shedding.final_depth <= shedding_policy().high_water + 1);
        assert!(naive.final_depth > shedding.final_depth, "{naive:?} vs {shedding:?}");
        // Bounded memory holds in every mode (reconcile() already
        // asserted memo_len <= capacity during the run).
        for c in &result.cells {
            assert!(c.memo_len <= MEMO_CAPACITY, "{c:?}");
        }
        let csv = to_csv(&result);
        assert_eq!(csv.lines().count(), 4, "{csv}");
        assert!(render(&result).contains("shedding"));
    }
}
