//! The write-ahead job journal.
//!
//! An append-only text log under the service directory: one line per
//! durable event (job registered, cell completed, job finished), each line
//! carrying its own FNV checksum. Appends are flushed (and optionally
//! fsynced) before the caller treats the event as durable, so a `kill -9`
//! can lose at most the line being written — and a torn trailing line is
//! detected by its checksum and ignored on recovery. The journal records
//! *facts about completion*, never payloads: cell payloads live in the
//! content-addressed store, and the job digest folds the per-cell payload
//! digests recorded here, which is what makes resume-after-crash produce a
//! byte-identical final digest without re-reading (or trusting) the cache.
//!
//! ```text
//! job 1 18 campaign #1a2b3c4d
//! cell 1 0 ok 9e107d9d372bb682 1250000 #...
//! cell 1 3 err deadline #...
//! done 1 84d1c8a3b4e5f607 #...
//! ```

use dvs_engine::{fnv1a_str, FNV_OFFSET};
use std::fs;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};

/// One durable event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A job was admitted; its cell list is durably on disk already.
    Job {
        /// Job id (monotonically increasing per service directory).
        id: u64,
        /// Number of cells the job expands to.
        cells: usize,
        /// Human-readable job kind label.
        kind: String,
    },
    /// A cell completed successfully; `payload_fnv` is the digest of its
    /// (stored or recomputed) payload, `wall_nanos` the compute wall-clock
    /// (0 for a cache hit).
    CellOk {
        /// Owning job.
        job: u64,
        /// Cell index within the job.
        index: usize,
        /// FNV-1a digest of the cell's payload.
        payload_fnv: u64,
        /// Host wall-clock spent computing, in nanoseconds.
        wall_nanos: u64,
    },
    /// A cell failed terminally (deterministic failure, exhausted retries,
    /// or a missed deadline).
    CellErr {
        /// Owning job.
        job: u64,
        /// Cell index within the job.
        index: usize,
        /// Failure class token (`deterministic`, `exhausted`, `deadline`).
        class: String,
    },
    /// A transient cell failure is being retried. Progress-only: retries
    /// never enter the digest, but `status` reports them so a stuck job is
    /// visible from the journal alone.
    Retry {
        /// Owning job.
        job: u64,
        /// Cell index within the job.
        index: usize,
        /// The attempt that just failed (1-based).
        attempt: u32,
    },
    /// Every cell of the job reached a terminal state; `digest` is the
    /// job's final results digest.
    Done {
        /// The finished job.
        job: u64,
        /// Final FNV-1a results digest.
        digest: u64,
    },
}

/// A cell's terminal state as recovered from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Completed with this payload digest.
    Ok {
        /// FNV-1a digest of the payload.
        payload_fnv: u64,
        /// Compute wall-clock in nanoseconds (0 for a cache hit).
        wall_nanos: u64,
    },
    /// Failed terminally with this class token.
    Err {
        /// Failure class token.
        class: String,
    },
}

/// One job's recovered progress.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// Job id.
    pub id: u64,
    /// Human-readable kind label.
    pub kind: String,
    /// Per-cell terminal outcomes (`None` = still pending).
    pub outcomes: Vec<Option<CellOutcome>>,
    /// Retry attempts journaled for this job (all cells, all runs).
    pub retries: u64,
    /// The final digest, once every cell was terminal.
    pub done: Option<u64>,
}

impl RecoveredJob {
    /// Indices of cells with no terminal outcome yet, in order.
    pub fn pending(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total compute wall-clock journaled for completed cells, in
    /// nanoseconds (cache hits contribute zero).
    pub fn wall_nanos(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Some(CellOutcome::Ok { wall_nanos, .. }) => Some(*wall_nanos),
                _ => None,
            })
            .sum()
    }
}

/// The open journal file plus its durability policy.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    sync: bool,
}

fn checksum(body: &str) -> u32 {
    fnv1a_str(FNV_OFFSET, body) as u32
}

fn render(event: &JournalEvent) -> String {
    let body = match event {
        JournalEvent::Job { id, cells, kind } => {
            format!("job {id} {cells} {}", sanitize(kind))
        }
        JournalEvent::CellOk {
            job,
            index,
            payload_fnv,
            wall_nanos,
        } => format!("cell {job} {index} ok {payload_fnv:016x} {wall_nanos}"),
        JournalEvent::CellErr { job, index, class } => {
            format!("cell {job} {index} err {}", sanitize(class))
        }
        JournalEvent::Retry {
            job,
            index,
            attempt,
        } => format!("retry {job} {index} {attempt}"),
        JournalEvent::Done { job, digest } => format!("done {job} {digest:016x}"),
    };
    format!("{body} #{:08x}\n", checksum(&body))
}

/// Keeps free-form labels from breaking the line format.
fn sanitize(s: &str) -> String {
    s.replace(['\n', '\r', '#'], "_")
}

/// Parses one journal line, verifying its checksum.
fn parse_line(line: &str) -> Result<JournalEvent, String> {
    let (body, sum) = line
        .rsplit_once(" #")
        .ok_or_else(|| format!("no checksum: {line:?}"))?;
    let sum = u32::from_str_radix(sum, 16).map_err(|_| format!("bad checksum: {line:?}"))?;
    if checksum(body) != sum {
        return Err(format!("checksum mismatch: {line:?}"));
    }
    let mut words = body.split(' ');
    let tag = words.next().unwrap_or_default();
    let mut num = |what: &str| -> Result<u64, String> {
        words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("bad {what}: {line:?}"))
    };
    match tag {
        "job" => {
            let id = num("job id")?;
            let cells = num("cell count")? as usize;
            let kind = words.collect::<Vec<_>>().join(" ");
            Ok(JournalEvent::Job { id, cells, kind })
        }
        "cell" => {
            let job = num("job id")?;
            let index = num("cell index")? as usize;
            match words.next() {
                Some("ok") => {
                    let payload_fnv = words
                        .next()
                        .and_then(|w| u64::from_str_radix(w, 16).ok())
                        .ok_or_else(|| format!("bad payload fnv: {line:?}"))?;
                    let wall_nanos = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad wall: {line:?}"))?;
                    Ok(JournalEvent::CellOk {
                        job,
                        index,
                        payload_fnv,
                        wall_nanos,
                    })
                }
                Some("err") => Ok(JournalEvent::CellErr {
                    job,
                    index,
                    class: words.collect::<Vec<_>>().join(" "),
                }),
                other => Err(format!("bad cell verdict {other:?}: {line:?}")),
            }
        }
        "retry" => {
            let job = num("job id")?;
            let index = num("cell index")? as usize;
            let attempt = num("attempt")? as u32;
            Ok(JournalEvent::Retry {
                job,
                index,
                attempt,
            })
        }
        "done" => {
            let job = num("job id")?;
            let digest = words
                .next()
                .and_then(|w| u64::from_str_radix(w, 16).ok())
                .ok_or_else(|| format!("bad digest: {line:?}"))?;
            Ok(JournalEvent::Done { job, digest })
        }
        other => Err(format!("unknown tag {other:?}: {line:?}")),
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` and replays it into
    /// per-job recovered state. `sync` selects fsync-per-append durability.
    ///
    /// Recovery tolerates a torn *trailing* line (the signature of a crash
    /// mid-append): it is ignored with a warning. A corrupt line elsewhere
    /// stops replay at that point — everything after it is treated as
    /// never-happened, which only causes recomputation, never wrong
    /// results.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn open(path: &Path, sync: bool) -> std::io::Result<(Journal, Vec<RecoveredJob>)> {
        let mut jobs: Vec<RecoveredJob> = Vec::new();
        if let Ok(f) = fs::File::open(path) {
            let reader = std::io::BufReader::new(f);
            let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
            for (i, line) in lines.iter().enumerate() {
                let event = match parse_line(line) {
                    Ok(event) => event,
                    Err(why) => {
                        let last = i + 1 == lines.len();
                        eprintln!(
                            "dvs serve: journal line {} {}: {why}",
                            i + 1,
                            if last {
                                "torn by a crash; ignored"
                            } else {
                                "corrupt; replay stops here"
                            }
                        );
                        break;
                    }
                };
                apply(&mut jobs, event);
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok((Journal { file, sync }, jobs))
    }

    /// Durably appends one event (flush + optional fsync before returning).
    ///
    /// # Errors
    ///
    /// I/O errors writing; the caller decides whether to degrade or abort.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        self.file.write_all(render(event).as_bytes())?;
        self.file.flush()?;
        if self.sync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// An incremental, read-only view of a (possibly live) journal file.
///
/// Each [`poll`](JournalTail::poll) reads whatever bytes were appended
/// since the last call and yields every newly *completed* line exactly
/// once, parsed and checksum-verified. A partial trailing line (an append
/// still in flight) is left unconsumed until its newline lands, so a
/// concurrent writer is never observed mid-line. The file not existing yet
/// is not an error — the tail reports no events until it appears.
///
/// Unlike [`Journal::open`] recovery, which conservatively stops at the
/// first corrupt non-trailing line, a tail is progress reporting: a
/// complete line that fails its checksum is surfaced as an error and the
/// tail keeps going.
#[derive(Debug)]
pub struct JournalTail {
    path: PathBuf,
    offset: u64,
}

impl JournalTail {
    /// A tail positioned at the start of `path`: the first poll replays
    /// everything journaled so far.
    pub fn new(path: impl Into<PathBuf>) -> JournalTail {
        JournalTail {
            path: path.into(),
            offset: 0,
        }
    }

    /// The lines completed since the last poll — each the parsed event or,
    /// for a complete line failing its checksum, the parse error.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file (a missing file is *not* an error).
    pub fn poll(&mut self) -> std::io::Result<Vec<Result<JournalEvent, String>>> {
        use std::io::{ErrorKind, Read as _, Seek as _, SeekFrom};
        let mut f = match fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        f.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        let Some(last_newline) = buf.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let complete = last_newline + 1;
        self.offset += complete as u64;
        let text = String::from_utf8_lossy(&buf[..complete]);
        Ok(text.lines().map(parse_line).collect())
    }
}

/// Folds one event into the recovered job list.
fn apply(jobs: &mut Vec<RecoveredJob>, event: JournalEvent) {
    match event {
        JournalEvent::Job { id, cells, kind } => jobs.push(RecoveredJob {
            id,
            kind,
            outcomes: vec![None; cells],
            retries: 0,
            done: None,
        }),
        JournalEvent::CellOk {
            job,
            index,
            payload_fnv,
            wall_nanos,
        } => {
            if let Some(j) = jobs.iter_mut().find(|j| j.id == job) {
                if let Some(slot) = j.outcomes.get_mut(index) {
                    *slot = Some(CellOutcome::Ok {
                        payload_fnv,
                        wall_nanos,
                    });
                }
            }
        }
        JournalEvent::CellErr { job, index, class } => {
            if let Some(j) = jobs.iter_mut().find(|j| j.id == job) {
                if let Some(slot) = j.outcomes.get_mut(index) {
                    *slot = Some(CellOutcome::Err { class });
                }
            }
        }
        JournalEvent::Retry { job, .. } => {
            if let Some(j) = jobs.iter_mut().find(|j| j.id == job) {
                j.retries += 1;
            }
        }
        JournalEvent::Done { job, digest } => {
            if let Some(j) = jobs.iter_mut().find(|j| j.id == job) {
                j.done = Some(digest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "dvs-journal-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_file(&p);
        p
    }

    fn events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Job {
                id: 1,
                cells: 3,
                kind: "campaign".to_owned(),
            },
            JournalEvent::CellOk {
                job: 1,
                index: 0,
                payload_fnv: 0xabcd,
                wall_nanos: 1_000,
            },
            JournalEvent::CellErr {
                job: 1,
                index: 2,
                class: "deadline".to_owned(),
            },
        ]
    }

    #[test]
    fn events_round_trip_through_the_file() {
        let path = tmp("roundtrip");
        let (mut j, recovered) = Journal::open(&path, false).expect("open");
        assert!(recovered.is_empty());
        for e in events() {
            j.append(&e).expect("append");
        }
        drop(j);
        let (_, recovered) = Journal::open(&path, true).expect("reopen");
        assert_eq!(recovered.len(), 1);
        let job = &recovered[0];
        assert_eq!(job.id, 1);
        assert_eq!(job.kind, "campaign");
        assert_eq!(
            job.outcomes[0],
            Some(CellOutcome::Ok {
                payload_fnv: 0xabcd,
                wall_nanos: 1_000
            })
        );
        assert_eq!(job.outcomes[1], None);
        assert_eq!(
            job.outcomes[2],
            Some(CellOutcome::Err {
                class: "deadline".to_owned()
            })
        );
        assert_eq!(job.pending(), vec![1]);
        assert_eq!(job.done, None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let path = tmp("torn");
        {
            let (mut j, _) = Journal::open(&path, false).expect("open");
            for e in events() {
                j.append(&e).expect("append");
            }
        }
        // Simulate a crash mid-append: chop the last line in half.
        let raw = fs::read_to_string(&path).expect("read");
        let cut = raw.len() - 10;
        fs::write(&path, &raw[..cut]).expect("tear");
        let (_, recovered) = Journal::open(&path, false).expect("reopen");
        let job = &recovered[0];
        assert!(job.outcomes[0].is_some(), "intact lines replay");
        assert_eq!(job.outcomes[2], None, "torn line is dropped");
        assert_eq!(job.pending(), vec![1, 2]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_stops_replay_conservatively() {
        let path = tmp("midcorrupt");
        {
            let (mut j, _) = Journal::open(&path, false).expect("open");
            for e in events() {
                j.append(&e).expect("append");
            }
        }
        let raw = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = raw.lines().collect();
        let flipped = lines[1].replace("ok", "ko");
        lines[1] = &flipped;
        fs::write(&path, lines.join("\n") + "\n").expect("corrupt");
        let (_, recovered) = Journal::open(&path, false).expect("reopen");
        let job = &recovered[0];
        assert_eq!(job.outcomes, vec![None, None, None], "replay stopped early");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn retries_and_wall_recover_from_the_journal() {
        let path = tmp("retry");
        {
            let (mut j, _) = Journal::open(&path, false).expect("open");
            for e in events() {
                j.append(&e).expect("append");
            }
            j.append(&JournalEvent::Retry {
                job: 1,
                index: 1,
                attempt: 1,
            })
            .expect("append");
            j.append(&JournalEvent::Retry {
                job: 1,
                index: 1,
                attempt: 2,
            })
            .expect("append");
        }
        let (_, recovered) = Journal::open(&path, false).expect("reopen");
        let job = &recovered[0];
        assert_eq!(job.retries, 2);
        assert_eq!(job.wall_nanos(), 1_000, "only ok cells contribute wall");
        assert_eq!(job.pending(), vec![1], "retries are not terminal");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_yields_each_event_exactly_once() {
        let path = tmp("tail");
        let (mut j, _) = Journal::open(&path, false).expect("open");
        let mut tail = JournalTail::new(&path);
        assert!(tail.poll().expect("poll empty").is_empty());
        for e in events() {
            j.append(&e).expect("append");
            let got = tail.poll().expect("poll");
            assert_eq!(got, vec![Ok(e)]);
        }
        assert!(tail.poll().expect("poll drained").is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_leaves_a_partial_trailing_line_unconsumed() {
        use std::io::Write as _;
        let path = tmp("tail-partial");
        let (mut j, _) = Journal::open(&path, false).expect("open");
        j.append(&events()[0]).expect("append");
        let full = render(&events()[1]);
        let (head, rest) = full.split_at(full.len() / 2);
        let mut raw = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("raw open");
        raw.write_all(head.as_bytes()).expect("half append");
        raw.flush().expect("flush");

        let mut tail = JournalTail::new(&path);
        let got = tail.poll().expect("poll");
        assert_eq!(got, vec![Ok(events()[0].clone())], "in-flight line hidden");

        raw.write_all(rest.as_bytes()).expect("finish append");
        raw.flush().expect("flush");
        assert_eq!(tail.poll().expect("poll"), vec![Ok(events()[1].clone())]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_reports_a_corrupt_line_and_keeps_going() {
        let path = tmp("tail-corrupt");
        {
            let (mut j, _) = Journal::open(&path, false).expect("open");
            for e in events() {
                j.append(&e).expect("append");
            }
        }
        let raw = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = raw.lines().collect();
        let flipped = lines[1].replace("ok", "ko");
        lines[1] = &flipped;
        fs::write(&path, lines.join("\n") + "\n").expect("corrupt");
        let mut tail = JournalTail::new(&path);
        let got = tail.poll().expect("poll");
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Ok(events()[0].clone()));
        assert!(got[1].is_err(), "corrupt line surfaces its parse error");
        assert_eq!(got[2], Ok(events()[2].clone()), "tail advances past it");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_of_a_missing_journal_is_empty_not_an_error() {
        let path = tmp("tail-missing");
        let mut tail = JournalTail::new(&path);
        assert!(tail.poll().expect("poll").is_empty());
    }

    #[test]
    fn done_marks_job_finished() {
        let path = tmp("done");
        {
            let (mut j, _) = Journal::open(&path, false).expect("open");
            j.append(&JournalEvent::Job {
                id: 4,
                cells: 1,
                kind: "fuzz hunt".to_owned(),
            })
            .expect("append");
            j.append(&JournalEvent::CellOk {
                job: 4,
                index: 0,
                payload_fnv: 1,
                wall_nanos: 2,
            })
            .expect("append");
            j.append(&JournalEvent::Done {
                job: 4,
                digest: 0xfeed,
            })
            .expect("append");
        }
        let (_, recovered) = Journal::open(&path, false).expect("reopen");
        assert_eq!(recovered[0].done, Some(0xfeed));
        assert_eq!(recovered[0].kind, "fuzz hunt");
        assert!(recovered[0].pending().is_empty());
        let _ = fs::remove_file(&path);
    }
}
