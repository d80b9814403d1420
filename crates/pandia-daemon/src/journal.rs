//! The write-ahead journal and checkpoint files behind crash-safe
//! `pandiad`.
//!
//! Recovery protocol: every event is appended to the journal *before*
//! it is applied (write-ahead), with `seq` = the logical clock it will
//! be applied at. Periodically the daemon's full logical state is
//! checkpointed (atomically, via tmp+rename). After a crash, the daemon
//! restores the newest checkpoint and replays the journal tail
//! (`seq >= checkpoint.seq`); because the daemon is deterministic,
//! replay reconstructs a byte-identical transcript and fleet state.
//! Journal writes are fsync'd in batches (`sync_every`), so the
//! unsynced tail of a crashed journal may be lost or torn — parsing
//! therefore tolerates a malformed *final* line (a torn write) while
//! treating any earlier corruption or sequence gap as a real error.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use pandia_core::PandiaError;

use crate::event::{field, parse_event, str_field, Event};

/// Schema tag on the first line of a journal file (from the workspace
/// schema registry).
pub const JOURNAL_SCHEMA: &str = pandia_obs::schema::JOURNAL_SCHEMA;

/// Schema tag on the first line of a checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = pandia_obs::schema::CHECKPOINT_SCHEMA;

/// An append-only, batch-fsync'd event journal.
///
/// [`append`](Self::append) buffers records and calls `sync_data` once
/// every `sync_every` appends (and on drop), trading a bounded window
/// of lost tail events for not paying an fsync per event. Lost tail
/// events are safe by construction: they were journaled before being
/// applied, so the recovered daemon simply re-consumes them from the
/// driving event stream.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// The record being written, reused across appends.
    line: String,
    path: PathBuf,
    sync_every: usize,
    pending: usize,
    appended: u64,
}

impl Journal {
    /// Creates (truncating) a journal at `path`, writing and syncing the
    /// schema line. `sync_every` of 0 is treated as 1 (sync every write).
    pub fn create(path: &Path, sync_every: usize) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        writeln!(file, "{{\"schema\":\"{JOURNAL_SCHEMA}\"}}")?;
        file.sync_data()?;
        Ok(Self {
            file,
            line: String::new(),
            path: path.to_path_buf(),
            sync_every: sync_every.max(1),
            pending: 0,
            appended: 0,
        })
    }

    /// Appends one `{"seq":N,"entry":{...}}` record; syncs if the batch
    /// is full. The record is rendered whole and handed to the OS with
    /// one `write`.
    pub fn append(&mut self, seq: u64, event: &Event) -> std::io::Result<()> {
        self.line.clear();
        let _ = write!(self.line, "{{\"seq\":{seq},\"entry\":");
        event.render(&mut self.line);
        self.line.push_str("}\n");
        self.file.write_all(self.line.as_bytes())?;
        self.appended += 1;
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces buffered records to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Records appended over this journal's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best effort: a failed sync here is the crash case the recovery
        // protocol already covers.
        let _ = self.sync();
    }
}

/// Parses a journal file's text into `(seq, event)` records.
///
/// A malformed **final** line is tolerated (dropped) — it is the torn
/// write of a crashed process. Malformed earlier lines, a bad schema
/// line, or non-contiguous sequence numbers are hard errors: they mean
/// corruption, not a crash.
pub fn parse_journal(text: &str) -> Result<Vec<(u64, Event)>, PandiaError> {
    let bad = |message: String| PandiaError::Serde { message };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let Some(&(first_no, first)) = lines.first() else {
        return Err(bad("journal is empty (no schema line)".into()));
    };
    let header: serde_json::Value = serde_json::from_str(first.trim())
        .map_err(|e| bad(format!("journal line {}: {e}", first_no + 1)))?;
    let schema = str_field(&header, "schema", first_no + 1)?;
    if schema != JOURNAL_SCHEMA {
        return Err(bad(format!(
            "journal schema mismatch: expected '{JOURNAL_SCHEMA}', got '{schema}'"
        )));
    }
    let mut records = Vec::with_capacity(lines.len() - 1);
    for (i, &(line_no, raw)) in lines[1..].iter().enumerate() {
        let last = i == lines.len() - 2;
        let value: serde_json::Value = match serde_json::from_str(raw.trim()) {
            Ok(v) => v,
            Err(_) if last => break, // torn final line from a crash
            Err(e) => return Err(bad(format!("journal line {}: {e}", line_no + 1))),
        };
        let seq = match field(&value, "seq").and_then(|v| v.as_u64()) {
            Some(seq) => seq,
            None if last => break,
            None => {
                return Err(bad(format!("journal line {}: missing 'seq'", line_no + 1)))
            }
        };
        let entry = match field(&value, "entry") {
            Some(entry) => entry,
            None if last => break,
            None => {
                return Err(bad(format!("journal line {}: missing 'entry'", line_no + 1)))
            }
        };
        let event = match parse_event(entry, line_no + 1) {
            Ok(event) => event,
            Err(_) if last => break,
            Err(e) => return Err(e),
        };
        if let Some(&(prev, _)) = records.last() {
            if seq != prev + 1 {
                return Err(bad(format!(
                    "journal line {}: sequence gap ({prev} then {seq})",
                    line_no + 1
                )));
            }
        }
        records.push((seq, event));
    }
    Ok(records)
}

/// Atomically writes a checkpoint document: write to `<path>.tmp`, sync,
/// rename over `path`. A crash mid-write leaves the previous checkpoint
/// intact.
pub fn write_checkpoint(path: &Path, document: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(document.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Submit { job: "j0".into(), class: "cpu".into(), priority: 2 },
            Event::Query,
            Event::Complete { job: "j0".into(), elapsed: Some(12.5) },
        ]
    }

    #[test]
    fn journal_round_trips_and_counts_appends() {
        let dir = std::env::temp_dir().join(format!("pandia-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let events = sample_events();
        {
            let mut journal = Journal::create(&path, 2).unwrap();
            for (i, event) in events.iter().enumerate() {
                journal.append(5 + i as u64, event).unwrap();
            }
            assert_eq!(journal.appended(), 3);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"schema\":\"pandia-journal-v1\"}\n\
             {\"seq\":5,\"entry\":{\"event\":\"submit\",\"job\":\"j0\",\"class\":\"cpu\",\"priority\":2}}\n\
             {\"seq\":6,\"entry\":{\"event\":\"query\"}}\n\
             {\"seq\":7,\"entry\":{\"event\":\"complete\",\"job\":\"j0\",\"elapsed\":12.5}}\n"
        );
        let records = parse_journal(&text).unwrap();
        assert_eq!(records.len(), 3);
        for (i, (seq, event)) in records.iter().enumerate() {
            assert_eq!(*seq, 5 + i as u64);
            assert_eq!(event, &events[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_lines_are_tolerated_but_gaps_are_not() {
        let intact = "{\"schema\":\"pandia-journal-v1\"}\n\
                      {\"seq\":0,\"entry\":{\"event\":\"query\"}}\n\
                      {\"seq\":1,\"entry\":{\"event\":\"query\"}}\n";
        assert_eq!(parse_journal(intact).unwrap().len(), 2);

        // Torn tail: a half-written final record parses as the intact
        // prefix.
        let torn = format!("{intact}{{\"seq\":2,\"entry\":{{\"event\":\"qu");
        assert_eq!(parse_journal(&torn).unwrap().len(), 2);

        // Mid-file corruption is a hard error, not a torn write.
        let corrupt = "{\"schema\":\"pandia-journal-v1\"}\n\
                       {\"seq\":0,\"entry\":{\"event\":\"qu\n\
                       {\"seq\":1,\"entry\":{\"event\":\"query\"}}\n";
        assert!(parse_journal(corrupt).is_err());

        // A sequence gap means lost records in the middle: hard error.
        let gap = "{\"schema\":\"pandia-journal-v1\"}\n\
                   {\"seq\":0,\"entry\":{\"event\":\"query\"}}\n\
                   {\"seq\":2,\"entry\":{\"event\":\"query\"}}\n";
        assert!(parse_journal(gap).is_err());

        assert!(parse_journal("").is_err());
        assert!(parse_journal("{\"schema\":\"pandia-eventlog-v1\"}\n").is_err());

        // A completion whose `elapsed` is not a number is corruption on
        // a non-final line, and a torn write (dropped) on the final one.
        let bad_elapsed =
            "{\"seq\":2,\"entry\":{\"event\":\"complete\",\"job\":\"a\",\"elapsed\":\"x\"}}\n";
        let query = "{\"seq\":3,\"entry\":{\"event\":\"query\"}}\n";
        let mid = format!("{intact}{bad_elapsed}{query}");
        match parse_journal(&mid) {
            Err(PandiaError::Serde { message }) => {
                assert_eq!(message, "event log line 4: 'elapsed' must be a number")
            }
            other => panic!("expected a serde error, got {other:?}"),
        }
        assert_eq!(parse_journal(&format!("{intact}{bad_elapsed}")).unwrap().len(), 2);
    }
}
