//! `pandiad`: an event-driven placement service over the incremental
//! fleet scheduler.
//!
//! Pandia's batch pipeline answers "where should these jobs go" once;
//! this crate turns that into a long-running service. A [`Daemon`]
//! consumes a stream of [`Event`]s — job submissions, completions,
//! failures, placement queries — and maintains:
//!
//! * a job queue with explicit status transitions
//!   (`queued → running → completed/failed`, with retries),
//! * the current fleet schedule, kept up to date by
//!   [`pandia_core::IncrementalFleet`], which re-solves only the
//!   machines each event touches and answers the rest from a memo,
//! * a deterministic transcript and audit ledger: the same event log
//!   replays to byte-identical output at any worker count, fault plan,
//!   or drift policy, because every draw is seeded and every time is
//!   logical.
//!
//! Event streams live in replayable JSONL logs ([`event::render_log`] /
//! [`event::parse_log`], schema `pandia-eventlog-v1`) or come from the
//! seeded generator ([`stream::generate_events`]). Fleets and class
//! catalogs come from [`presets`] — tiny synthetic ones for tests and
//! CI, profiled real-machine ones for experiments.
//!
//! The `pandiad` binary replays or generates a stream and emits the
//! transcript plus optional telemetry (`--trace-out`, `--metrics-out`,
//! and live `--events-out` span streaming).
//!
//! The daemon is crash-safe and overload-safe: a write-ahead [`Journal`]
//! plus periodic checkpoints ([`Daemon::checkpoint`], schemas
//! `pandia-journal-v1` / `pandia-checkpoint-v2`) let a killed `pandiad`
//! restart into a byte-identical state through one fold,
//! [`Daemon::recover`], while [`QueuePolicy`] bounds the submission
//! queue (explicit rejections, deadline and overflow shedding, degraded
//! mode halving the fleet memo). One fixed retry rule gives each job
//! three placement attempts and spreads faulted ones over capped
//! exponential backoff in event time (1, 2, 4, then 8 events).

pub mod event;
pub mod job;
pub mod journal;
pub mod presets;
pub mod service;
pub mod stream;

pub use event::{parse_log, render_log, Event, EVENTLOG_SCHEMA};
pub use job::{JobRecord, JobStatus};
pub use journal::{parse_journal, write_checkpoint, Journal, CHECKPOINT_SCHEMA, JOURNAL_SCHEMA};
pub use presets::{profiled, synthetic, synthetic_small, FleetPreset, SYNTHETIC_CLASSES};
pub use service::{ClassCatalog, Daemon, DaemonAudit, DaemonConfig, QueuePolicy};
pub use stream::{generate_events, generate_events_with_rate};
