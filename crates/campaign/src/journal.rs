//! Crash-consistent run journal: an append-only JSON-lines manifest of a
//! campaign run, so a SIGKILL'd sweep restarts where it died.
//!
//! Each line is one event. A write is one `write_all` of a complete line
//! (including its trailing newline) followed by a flush, so on POSIX
//! appends the line lands atomically or — if the process dies mid-write —
//! as a torn tail with no newline. Replay tolerates both: only
//! newline-terminated, parseable lines count, last terminal event per
//! fingerprint wins. Opening an existing journal first repairs a torn
//! tail by appending a lone newline, so this run's events never
//! concatenate with crash debris.
//!
//! Events:
//!
//! ```text
//! {"event":"journal","version":1}                      — file header
//! {"event":"start","fp":"…","key":"…"}                 — point dispatched
//! {"event":"retry","fp":"…","attempt":1,"error":"…"}   — attempt failed, re-dispatched
//! {"event":"done","fp":"…","attempts":1,"result":"…"}  — result (codec-encoded, escaped)
//! {"event":"failed","fp":"…","attempts":3,"error":"…"} — budget exhausted
//! {"event":"coalesced","fp":"…"}                       — served by a concurrent campaign
//! ```
//!
//! The `result` field embeds the cache codec's lossless rendering
//! (JSON-string-escaped, since it is multi-line), so replay reconstructs
//! the exact `RunResult` — resume is bit-identical, not approximate.
//!
//! Journal writes are best-effort: an unwritable journal warns once and
//! the campaign carries on. Results are never gated on journaling.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mn_core::RunResult;
use mn_telemetry::registry;

use crate::codec;
use crate::sink::json_string;

/// Journal format version, bumped on incompatible event changes.
const VERSION: u32 = 1;

/// A point replayed from a journal's `done` event.
#[derive(Debug, Clone)]
pub struct ReplayedPoint {
    /// The decoded result, bit-identical to the original run's.
    pub result: RunResult,
    /// Attempts the original run spent on the point.
    pub attempts: u32,
}

/// An open, append-mode run journal.
#[derive(Debug)]
pub struct RunJournal {
    file: Mutex<File>,
    path: PathBuf,
}

/// Journal append failures warn once per process, not once per point.
static WRITE_WARNED: AtomicBool = AtomicBool::new(false);

impl RunJournal {
    /// Opens (creating if absent) the journal at `path` for appending.
    /// An existing file's torn tail — crash debris without a trailing
    /// newline — is repaired by appending a newline before any event.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened
    /// or created. (Subsequent appends are best-effort instead: a run
    /// never dies because its journal became unwritable.)
    pub fn open(path: &Path) -> std::io::Result<RunJournal> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len == 0 {
            writeln!(file, r#"{{"event":"journal","version":{VERSION}}}"#)?;
        } else {
            // Append-only repair: read the last byte via a second handle
            // (the append handle always writes at EOF anyway).
            let mut tail = [0u8; 1];
            let mut reader = File::open(path)?;
            reader.seek(SeekFrom::End(-1))?;
            reader.read_exact(&mut tail)?;
            if tail[0] != b'\n' {
                file.write_all(b"\n")?;
                registry::metrics().journal_torn_tails_repaired.inc();
            }
        }
        file.flush()?;
        Ok(RunJournal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        })
    }

    /// The journal's path (for reports and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a point's dispatch.
    pub fn start(&self, fingerprint: &str, key: &str) {
        self.append(&format!(
            r#"{{"event":"start","fp":{},"key":{}}}"#,
            json_string(fingerprint),
            json_string(key),
        ));
    }

    /// Records a failed attempt that earned a re-dispatch.
    pub fn retry(&self, fingerprint: &str, attempt: u32, error: &str) {
        self.append(&format!(
            r#"{{"event":"retry","fp":{},"attempt":{attempt},"error":{}}}"#,
            json_string(fingerprint),
            json_string(error),
        ));
    }

    /// Records a completed point with its lossless result encoding.
    pub fn done(&self, fingerprint: &str, attempts: u32, result: &RunResult) {
        self.append(&format!(
            r#"{{"event":"done","fp":{},"attempts":{attempts},"result":{}}}"#,
            json_string(fingerprint),
            json_string(&codec::encode_result(result)),
        ));
    }

    /// Records a point served by a concurrent campaign through the
    /// shared engine's in-flight table. Informational, not terminal:
    /// replay ignores it (the owning campaign journaled the result and
    /// stored it in the cache, so a resumed run hits the cache instead).
    pub fn coalesced(&self, fingerprint: &str) {
        self.append(&format!(
            r#"{{"event":"coalesced","fp":{}}}"#,
            json_string(fingerprint),
        ));
    }

    /// Records a point whose retry budget is exhausted.
    pub fn failed(&self, fingerprint: &str, attempts: u32, error: &str) {
        self.append(&format!(
            r#"{{"event":"failed","fp":{},"attempts":{attempts},"error":{}}}"#,
            json_string(fingerprint),
            json_string(error),
        ));
    }

    /// Appends one complete line; best-effort, warns once on failure.
    fn append(&self, line: &str) {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let outcome = file.write_all(buf.as_bytes()).and_then(|()| file.flush());
        if outcome.is_ok() {
            registry::metrics().journal_lines_written.inc();
        }
        if let Err(e) = outcome {
            if !WRITE_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: journal {} became unwritable ({e}); resume data \
                     will be incomplete",
                    self.path.display()
                );
            }
        }
    }
}

/// Replays a journal: the completed points it can vouch for, keyed by
/// fingerprint. Torn tails, lines that are not UTF-8, unparseable lines,
/// and undecodable results are skipped (the point simply re-runs); a
/// `failed` event retracts an earlier `done` for the same fingerprint,
/// re-dispatching the point.
///
/// # Errors
///
/// Returns the underlying I/O error when the file exists but cannot be
/// read. A missing file is not an error — it replays as empty, so
/// `--resume` on a fresh path starts a fresh journal.
pub fn replay(path: &Path) -> std::io::Result<HashMap<String, ReplayedPoint>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let mut points = HashMap::new();
    // Only newline-terminated lines are trusted: a torn tail (no final
    // newline) is crash debris from an interrupted append.
    let Some(last) = bytes.iter().rposition(|&b| b == b'\n') else {
        return Ok(points);
    };
    // Lines are judged one at a time, so a damaged byte costs only the
    // line that holds it.
    for line in bytes[..last].split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line) else {
            continue; // not UTF-8: skip, never fail
        };
        let Some(event) = json_str_field(line, "event") else {
            continue; // unparseable: skip, never fail
        };
        match event.as_str() {
            "done" => {
                let (Some(fp), Some(encoded)) =
                    (json_str_field(line, "fp"), json_str_field(line, "result"))
                else {
                    continue;
                };
                let Some(result) = codec::decode_result(&encoded) else {
                    continue; // undecodable result: the point re-runs
                };
                let attempts = json_u32_field(line, "attempts").unwrap_or(1);
                registry::metrics().journal_replayed_points.inc();
                points.insert(fp, ReplayedPoint { result, attempts });
            }
            "failed" => {
                if let Some(fp) = json_str_field(line, "fp") {
                    points.remove(&fp);
                }
            }
            _ => {} // header, start, retry, coalesced: no terminal state
        }
    }
    Ok(points)
}

/// Extracts a string field from one journal line: finds `"name":"` and
/// unescapes the JSON string that follows. A minimal parser for the
/// journal's own output (this crate is dependency-free by design); it
/// need not accept arbitrary JSON, only round-trip `json_string`.
fn json_str_field(line: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None, // not an escape json_string emits
            },
            c => out.push(c),
        }
    }
}

/// Extracts a bare (unquoted) integer field from one journal line.
fn json_u32_field(line: &str, name: &str) -> Option<u32> {
    let needle = format!("\"{name}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignPoint;
    use mn_core::{simulate, SystemConfig};
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mn-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_result() -> (CampaignPoint, RunResult) {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 150;
        let result = simulate(&config, Workload::Nw);
        (CampaignPoint::new(config, Workload::Nw), result)
    }

    #[test]
    fn roundtrips_done_points_bit_identically() {
        let dir = scratch("roundtrip");
        let path = dir.join("run.journal");
        let (point, result) = tiny_result();
        let fp = point.fingerprint();

        let journal = RunJournal::open(&path).unwrap();
        journal.start(&fp, &point.cache_key());
        journal.done(&fp, 1, &result);
        drop(journal);

        let replayed = replay(&path).unwrap();
        let got = replayed.get(&fp).expect("done point replays");
        assert_eq!(got.attempts, 1);
        // The codec rendering is lossless: encoded equality is result
        // equality, the same contract the cache relies on.
        assert_eq!(
            codec::encode_result(&got.result),
            codec::encode_result(&result)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_and_repaired() {
        let dir = scratch("torn");
        let path = dir.join("run.journal");
        let (point, result) = tiny_result();
        let fp = point.fingerprint();

        let journal = RunJournal::open(&path).unwrap();
        journal.done(&fp, 2, &result);
        drop(journal);

        // Crash mid-append: a partial line with no trailing newline.
        use std::io::Write as _;
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(br#"{"event":"done","fp":"torn-"#).unwrap();
        drop(file);

        // Replay skips the debris but keeps the complete line.
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed.get(&fp).unwrap().attempts, 2);

        // Re-opening repairs the tail: the next event starts on its own
        // line, and replay still sees exactly the valid events.
        let journal = RunJournal::open(&path).unwrap();
        journal.failed("other-point", 3, "simulated failure");
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\n{\"event\":\"failed\""),
            "repair must newline-separate the new event: {text:?}"
        );
        assert_eq!(replay(&path).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_line_is_skipped_not_fatal() {
        let dir = scratch("utf8");
        let path = dir.join("run.journal");
        let (point, result) = tiny_result();
        let fp = point.fingerprint();

        let journal = RunJournal::open(&path).unwrap();
        journal.done(&fp, 1, &result);
        drop(journal);

        // A damaged line: complete, but holding a byte that is not UTF-8.
        use std::io::Write as _;
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"event\":\"done\",\"fp\":\"\xFF\"}\n")
            .unwrap();
        drop(file);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed.get(&fp).unwrap().attempts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_retracts_done_and_missing_file_is_empty() {
        let dir = scratch("retract");
        let path = dir.join("run.journal");
        assert!(replay(&path).unwrap().is_empty(), "missing file: empty");

        let (point, result) = tiny_result();
        let fp = point.fingerprint();
        let journal = RunJournal::open(&path).unwrap();
        journal.done(&fp, 1, &result);
        journal.failed(&fp, 3, "went bad on a later run");
        drop(journal);
        assert!(
            replay(&path).unwrap().is_empty(),
            "failed must retract the earlier done"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn field_extraction_handles_escapes() {
        let line = r#"{"event":"retry","fp":"a\nb\"c\\d","attempt":7,"error":"x"}"#;
        assert_eq!(json_str_field(line, "event").unwrap(), "retry");
        assert_eq!(json_str_field(line, "fp").unwrap(), "a\nb\"c\\d");
        assert_eq!(json_u32_field(line, "attempt"), Some(7));
        assert_eq!(json_str_field(line, "absent"), None);
        assert_eq!(json_u32_field(line, "fp"), None);
        // Control-character escape, as json_string emits for < 0x20.
        let ctl = r#"{"event":"x","fp":"a\u0007b"}"#;
        assert_eq!(json_str_field(ctl, "fp").unwrap(), "a\u{7}b");
    }
}
