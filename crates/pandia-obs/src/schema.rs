//! The schema-version registry: every `pandia-*-vN` format tag in the
//! workspace, defined exactly once.
//!
//! Each machine-readable artifact Pandia writes — Chrome traces, metrics
//! and events JSONL streams, daemon event logs, heartbeat snapshots,
//! attribution reports — carries a self-describing schema string so
//! consumers can sniff formats and reject version skew. Those strings
//! are load-bearing: a producer and a parser disagreeing by one
//! character silently severs the pipeline. This module is therefore the
//! single sanctioned home for the literals; everything else must import
//! the constant. pandia-lint rule V1 enforces this mechanically: a
//! `pandia-*-vN` string literal anywhere outside this file is a finding.
//!
//! Bumping a version is a registry edit plus a producer/parser change in
//! the same commit — the constant makes the pairing greppable.

/// Chrome trace-event documents (`--trace-out`), in `otherData.schema`.
pub const TRACE_SCHEMA: &str = "pandia-trace-v1";

/// Metrics JSONL registry dumps (`--metrics-out`), first line.
pub const METRICS_SCHEMA: &str = "pandia-metrics-v1";

/// Span-event JSONL streams (`--events-out`), first line.
pub const EVENTS_SCHEMA: &str = "pandia-events-v1";

/// Periodic metrics-snapshot heartbeat lines (`pandiad
/// --snapshots-out`); every line is self-describing so a stream can be
/// tailed from any point.
pub const SNAPSHOT_SCHEMA: &str = "pandia-metrics-snapshot-v1";

/// Replayable daemon event logs (`pandiad --log-out` / `--replay`),
/// first line.
pub const EVENTLOG_SCHEMA: &str = "pandia-eventlog-v1";

/// Write-ahead journal files (`pandiad --journal`), first line. Each
/// subsequent line pairs an event with its sequence number so a crashed
/// daemon can replay the tail past its last checkpoint.
pub const JOURNAL_SCHEMA: &str = "pandia-journal-v1";

/// Periodic fleet-state checkpoints (`pandiad --checkpoint`), first
/// line. A checkpoint plus the journal tail reconstructs a byte-identical
/// daemon state after a crash. v2 writes a retired job as its name and
/// status only, and the transcript as a raw trailer after its byte
/// count.
pub const CHECKPOINT_SCHEMA: &str = "pandia-checkpoint-v2";

/// Offline attribution reports (`pandia_report --json`), top-level
/// `schema` field.
pub const REPORT_SCHEMA: &str = "pandia-report-v1";

#[cfg(test)]
mod tests {
    /// The registry is also the uniqueness authority: two artifacts
    /// sharing a tag would make format sniffing ambiguous.
    #[test]
    fn tags_are_unique_and_versioned() {
        let all = [
            super::TRACE_SCHEMA,
            super::METRICS_SCHEMA,
            super::EVENTS_SCHEMA,
            super::SNAPSHOT_SCHEMA,
            super::EVENTLOG_SCHEMA,
            super::JOURNAL_SCHEMA,
            super::CHECKPOINT_SCHEMA,
            super::REPORT_SCHEMA,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("pandia-"), "{a}");
            let (_, version) = a.rsplit_once("-v").expect("versioned tag");
            assert!(version.chars().all(|c| c.is_ascii_digit()), "{a}");
            assert!(!all[i + 1..].contains(a), "duplicate schema tag {a}");
        }
    }
}
