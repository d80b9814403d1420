//! The daemon's event model and its replayable JSONL log format.
//!
//! `pandiad` is driven entirely by a stream of [`Event`]s — submissions,
//! completions, failures, and placement queries. A stream can be
//! serialized to a JSON Lines file (schema [`EVENTLOG_SCHEMA`]) and
//! replayed later: because the daemon is seeded and logical-time, the
//! same log always yields byte-identical transcripts and schedules.
//!
//! Rendering is hand-rolled (the format is a flat object per line);
//! parsing goes through `serde_json::Value` so malformed logs produce
//! diagnosable errors rather than panics.

use pandia_core::PandiaError;

/// Schema tag written as the first line of an event log file (defined
/// in the workspace schema registry, `pandia_obs::schema`).
pub const EVENTLOG_SCHEMA: &str = pandia_obs::schema::EVENTLOG_SCHEMA;

/// One input to the placement service.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job arrives and asks to be placed. `class` names a workload
    /// class in the daemon's catalog; all jobs of one class share
    /// bit-identical descriptions (the incremental scheduler's memo
    /// contract).
    Submit {
        /// Unique job name.
        job: String,
        /// Workload class (catalog key).
        class: String,
        /// Shedding priority: higher survives longer under overload.
        /// Zero (the default, omitted from the log) marks best-effort
        /// work that load shedding drops first.
        priority: u8,
    },
    /// A job finished. `elapsed` optionally reports the observed logical
    /// runtime, which feeds drift detection when it disagrees with the
    /// prediction.
    Complete {
        /// Job name.
        job: String,
        /// Observed logical runtime, if the caller measured one.
        elapsed: Option<f64>,
    },
    /// A job failed externally; the daemon retries it (up to the
    /// configured attempt budget) or marks it failed.
    Fail {
        /// Job name.
        job: String,
    },
    /// Ask for the current fleet schedule; the answer is appended to the
    /// transcript.
    Query,
}

impl Event {
    /// The event's kind tag, as written in the log.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Submit { .. } => "submit",
            Event::Complete { .. } => "complete",
            Event::Fail { .. } => "fail",
            Event::Query => "query",
        }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Event::Submit { job, class, priority } => {
                out.push_str("{\"event\":\"submit\",\"job\":");
                json_string(&mut out, job);
                out.push_str(",\"class\":");
                json_string(&mut out, class);
                // Priority 0 is omitted so logs written before the field
                // existed render (and re-render) byte-identically.
                if *priority != 0 {
                    out.push_str(",\"priority\":");
                    out.push_str(&priority.to_string());
                }
            }
            Event::Complete { job, elapsed } => {
                out.push_str("{\"event\":\"complete\",\"job\":");
                json_string(&mut out, job);
                if let Some(t) = elapsed {
                    out.push_str(",\"elapsed\":");
                    out.push_str(&format_f64(*t));
                }
            }
            Event::Fail { job } => {
                out.push_str("{\"event\":\"fail\",\"job\":");
                json_string(&mut out, job);
            }
            Event::Query => out.push_str("{\"event\":\"query\""),
        }
        out.push('}');
        out
    }
}

/// The bytes [`json_string`] escapes: `"`, `\` and the controls below
/// 0x20. All are ASCII, so the runs between them are whole UTF-8.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes and control characters. Each run of bytes that needs no
/// escape is copied with one `push_str`.
pub(crate) fn json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !NEEDS_ESCAPE[usize::from(b)] {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Renders an `f64` so it round-trips through `serde_json` bit-exactly
/// for the values event logs carry (finite, positive).
fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Renders a full event log (schema line plus one line per event).
pub fn render_log(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"");
    out.push_str(EVENTLOG_SCHEMA);
    out.push_str("\"}\n");
    for event in events {
        out.push_str(&event.render());
        out.push('\n');
    }
    out
}

/// Looks up a member of a JSON object value by key.
pub(crate) fn field<'a>(value: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    value.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A string field of a JSON object, or an error naming what was wrong.
pub(crate) fn str_field(value: &serde_json::Value, key: &str, line: usize) -> Result<String, PandiaError> {
    field(value, key)
        .and_then(|v| v.as_str())
        .map(|s| s.to_string())
        .ok_or_else(|| PandiaError::Serde {
            message: format!("event log line {line}: missing string field '{key}'"),
        })
}

/// Parses one already-decoded event object (`{"event":...}`); `line` is
/// the 1-based source line for diagnostics. Shared by the event-log
/// parser and the write-ahead journal, whose records embed the same
/// object shape.
pub(crate) fn parse_event(value: &serde_json::Value, line: usize) -> Result<Event, PandiaError> {
    let kind = str_field(value, "event", line)?;
    match kind.as_str() {
        "submit" => Ok(Event::Submit {
            job: str_field(value, "job", line)?,
            class: str_field(value, "class", line)?,
            priority: match field(value, "priority") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .filter(|p| *p <= u8::MAX as u64)
                    .ok_or_else(|| PandiaError::Serde {
                        message: format!(
                            "event log line {line}: 'priority' must be an integer in 0..=255"
                        ),
                    })? as u8,
            },
        }),
        "complete" => Ok(Event::Complete {
            job: str_field(value, "job", line)?,
            elapsed: field(value, "elapsed").and_then(|v| v.as_f64()),
        }),
        "fail" => Ok(Event::Fail { job: str_field(value, "job", line)? }),
        "query" => Ok(Event::Query),
        other => Err(PandiaError::Serde {
            message: format!("event log line {line}: unknown event '{other}'"),
        }),
    }
}

/// Parses an event log rendered by [`render_log`]. The first line must
/// carry the [`EVENTLOG_SCHEMA`] tag; blank lines are ignored.
pub fn parse_log(text: &str) -> Result<Vec<Event>, PandiaError> {
    let mut events = Vec::new();
    let mut saw_schema = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| PandiaError::Serde {
                message: format!("event log line {}: {e}", i + 1),
            })?;
        if !saw_schema {
            let schema = str_field(&value, "schema", i + 1)?;
            if schema != EVENTLOG_SCHEMA {
                return Err(PandiaError::Serde {
                    message: format!(
                        "event log schema mismatch: expected '{EVENTLOG_SCHEMA}', got '{schema}'"
                    ),
                });
            }
            saw_schema = true;
            continue;
        }
        events.push(parse_event(&value, i + 1)?);
    }
    if !saw_schema {
        return Err(PandiaError::Serde { message: "event log is empty (no schema line)".into() });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-by-char escaper [`json_string`] replaced, kept as its
    /// reference.
    fn json_string_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn json_string_matches_the_char_by_char_reference() {
        // Every control byte, both escaped punctuation marks, bytes next
        // to the escaped ranges, and one- to four-byte UTF-8.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', ' ', '/', '!', '#', '[', ']', 'a', '~', '\u{7f}']);
        alphabet.extend(['\u{80}', '\u{a0}', 'é', 'ÿ', 'Ω', '\u{2028}', '€', '\u{ffff}', '😀']);
        let mut state = 0x0E5C_A9E5u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let mut inputs: Vec<String> = alphabet.iter().map(|c| c.to_string()).collect();
        inputs.push(alphabet.iter().collect());
        inputs.push(String::new());
        for _ in 0..4000 {
            let len = next() % 48;
            // Long clean runs and dense escapes both: draw plain letters
            // half the time.
            let s = (0..len)
                .map(|_| if next() % 2 == 0 { 'x' } else { alphabet[next() % alphabet.len()] })
                .collect();
            inputs.push(s);
        }
        let mut buf = String::from("prefix:");
        for s in &inputs {
            let mut out = String::new();
            json_string(&mut out, s);
            assert_eq!(out, json_string_reference(s), "{s:?}");
            // Appending keeps what the buffer held.
            buf.truncate("prefix:".len());
            json_string(&mut buf, s);
            assert_eq!(buf, format!("prefix:{out}"));
        }
    }

    #[test]
    fn log_round_trips_through_render_and_parse() {
        let events = vec![
            Event::Submit { job: "j0".into(), class: "EP".into(), priority: 0 },
            Event::Complete { job: "j0".into(), elapsed: Some(123.5) },
            Event::Submit { job: "j\"1".into(), class: "CG".into(), priority: 3 },
            Event::Fail { job: "j\"1".into() },
            Event::Complete { job: "j\"1".into(), elapsed: None },
            Event::Query,
        ];
        let text = render_log(&events);
        assert!(text.starts_with("{\"schema\":\"pandia-eventlog-v1\"}\n"));
        assert!(
            text.contains("\"job\":\"j0\",\"class\":\"EP\"}"),
            "priority 0 must stay off the wire: {text}"
        );
        assert!(text.contains("\"priority\":3"), "{text}");
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn out_of_range_priority_is_rejected() {
        let log = "{\"schema\":\"pandia-eventlog-v1\"}\n\
                   {\"event\":\"submit\",\"job\":\"a\",\"class\":\"c\",\"priority\":256}\n";
        assert!(parse_log(log).is_err());
        let neg = "{\"schema\":\"pandia-eventlog-v1\"}\n\
                   {\"event\":\"submit\",\"job\":\"a\",\"class\":\"c\",\"priority\":-1}\n";
        assert!(parse_log(neg).is_err());
    }

    #[test]
    fn bad_logs_are_rejected_with_context() {
        assert!(parse_log("").is_err());
        assert!(parse_log("{\"schema\":\"other-v9\"}\n").is_err());
        let missing =
            "{\"schema\":\"pandia-eventlog-v1\"}\n{\"event\":\"submit\",\"job\":\"a\"}\n";
        let err = parse_log(missing).unwrap_err();
        assert!(format!("{err:?}").contains("class"), "error should name the field: {err:?}");
        let unknown = "{\"schema\":\"pandia-eventlog-v1\"}\n{\"event\":\"explode\"}\n";
        assert!(parse_log(unknown).is_err());
    }
}
