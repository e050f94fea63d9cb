//! Parent-side worker pool for process isolation.
//!
//! Each sweep thread owns at most one `redsoc worker` child (a
//! thread-local slot): jobs ship to it one at a time over the
//! length-prefixed frame protocol in [`worker`](crate::worker). The
//! supervision contract:
//!
//! - **One deadline per attempt.** The parent writes the job frame and
//!   waits [`WorkerPoolConfig::wall_timeout`] for the `ok`/`err` reply.
//!   No reply in time — a wedged simulator loop, a livelock, a stuck
//!   child — means SIGKILL, then [`JobError::WallTimeout`].
//! - **Death is classified, not propagated.** A worker that dies
//!   mid-job becomes a structured [`JobError`] on that one cell: a death
//!   whose stderr carries Rust's `memory allocation of … failed` marker
//!   is [`JobError::OomKilled`], any other signal death is
//!   [`JobError::Killed`], and a clean exit or torn frame mid-job is a
//!   [`JobError::ProtocolError`]. The worker's last stderr lines ride
//!   along as the failure's event dump.
//! - **Workers are disposable.** Any transport failure discards the
//!   child; the next attempt spawns a fresh one. A healthy worker lives
//!   until its sweep thread ends. Worker-reported *job* failures (a
//!   deadlock, a timeout, a caught panic) leave the worker alive — its
//!   trace cache is warm and the failure was contained.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::journal::JournalRecord;
use crate::json::Json;
use crate::supervisor::{CellSummary, JobError};
use crate::worker::{
    job_error_from_json, read_frame, send_signal, write_frame, FrameError, JobSpec,
};

/// How many stderr lines a worker's tail buffer keeps (the post-mortem
/// event dump for a dead worker).
const STDERR_TAIL: usize = 40;

/// Configuration for the process-isolation tier.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// The `redsoc` binary to spawn workers from (normally
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Per-worker address-space cap, applied by the worker itself via
    /// `setrlimit(RLIMIT_AS)` before its first job.
    pub mem_limit_mb: Option<u64>,
    /// How long the parent waits for a job's reply before killing the
    /// worker — the per-attempt wall-clock limit.
    pub wall_timeout: Duration,
}

impl WorkerPoolConfig {
    /// Defaults: no memory cap, 30 s reply deadline.
    #[must_use]
    pub fn new(exe: PathBuf) -> Self {
        WorkerPoolConfig {
            exe,
            mem_limit_mb: None,
            wall_timeout: Duration::from_secs(30),
        }
    }
}

/// One live worker child plus its supervision plumbing.
struct WorkerHandle {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    /// Frames from the reader thread; a send of `Err` is terminal.
    frames: Receiver<Result<Json, FrameError>>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    /// The thread filling `stderr_tail`; it ends at the worker's stderr
    /// EOF, so once it has finished the tail is complete.
    stderr_drain: JoinHandle<()>,
}

/// What one dispatch did to the worker.
enum Dispatch {
    /// The worker is alive and usable (the job may still have failed).
    Done(Result<CellSummary, (JobError, Vec<String>)>),
    /// The worker is dead or poisoned; discard it.
    Lost(JobError, Vec<String>),
}

impl WorkerHandle {
    fn spawn(cfg: &WorkerPoolConfig) -> Result<WorkerHandle, String> {
        let mut cmd = std::process::Command::new(&cfg.exe);
        cmd.arg("worker")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            // A worker must never think *it* is under fault injection or
            // die-after-jobs chaos; faults reach it via job frames only.
            .env_remove("REDSOC_FAULT")
            .env_remove("REDSOC_DIE_AFTER_JOBS");
        if let Some(mb) = cfg.mem_limit_mb {
            cmd.arg("--mem-limit-mb").arg(mb.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker from {}: {e}", cfg.exe.display()))?;
        let stdin = child.stdin.take().ok_or("worker stdin not piped")?;
        let stdout = child.stdout.take().ok_or("worker stdout not piped")?;
        let stderr = child.stderr.take().ok_or("worker stderr not piped")?;

        let (tx, frames) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                let frame = read_frame(&mut reader);
                let terminal = frame.is_err();
                if tx.send(frame).is_err() || terminal {
                    break;
                }
            }
        });
        let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        let stderr_drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });

        Ok(WorkerHandle {
            child,
            stdin,
            frames,
            stderr_tail,
            stderr_drain,
        })
    }

    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn tail(&self) -> Vec<String> {
        self.stderr_tail
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Classify a worker that died (or was killed) mid-job. Waits for
    /// the real exit status so the death signal is known, then up to
    /// 200 ms for the stderr drain to reach EOF, so a marker printed just
    /// before the abort is in the tail.
    fn classify_death(&mut self) -> (JobError, Vec<String>) {
        let status = self.child.wait();
        let deadline = Instant::now() + Duration::from_millis(200);
        while !self.stderr_drain.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = self.tail();
        let oom_marker = events.iter().any(|l| l.contains("memory allocation of"));
        let error = match status {
            Ok(status) => {
                #[cfg(unix)]
                let signal = std::os::unix::process::ExitStatusExt::signal(&status);
                #[cfg(not(unix))]
                let signal: Option<i32> = None;
                death_error(signal, oom_marker, &status.to_string())
            }
            Err(e) => JobError::ProtocolError {
                detail: format!("cannot reap dead worker: {e}"),
            },
        };
        (error, events)
    }

    /// Ship one job and supervise it to a reply, a death, or a kill at
    /// the wall-clock deadline.
    fn dispatch(&mut self, cfg: &WorkerPoolConfig, spec: &JobSpec) -> Dispatch {
        if let Err(e) = write_frame(&mut self.stdin, &spec.to_json()) {
            let (mut err, events) = self.classify_death();
            if let JobError::ProtocolError { detail } = &mut err {
                *detail = format!("job frame write failed ({e}); {detail}");
            }
            return Dispatch::Lost(err, events);
        }
        let lost = match self.frames.recv_timeout(cfg.wall_timeout) {
            Ok(Ok(frame)) => match parse_reply(&frame) {
                Ok(outcome) => return Dispatch::Done(outcome),
                Err(detail) => JobError::ProtocolError { detail },
            },
            // Reader thread saw EOF: the worker died. Reap and classify.
            Ok(Err(FrameError::Eof)) | Err(RecvTimeoutError::Disconnected) => {
                let (err, events) = self.classify_death();
                return Dispatch::Lost(err, events);
            }
            Ok(Err(FrameError::Protocol(detail))) => JobError::ProtocolError { detail },
            // No reply by the deadline: wedged or livelocked. SIGKILL
            // needs no cooperation from the worker.
            Err(RecvTimeoutError::Timeout) => JobError::WallTimeout {
                limit_ms: cfg.wall_timeout.as_millis() as u64,
            },
        };
        self.kill_now();
        Dispatch::Lost(lost, self.tail())
    }
}

/// Decode an `ok`/`err` reply frame into the attempt's outcome. `Err`
/// describes a malformed reply.
fn parse_reply(frame: &Json) -> Result<Result<CellSummary, (JobError, Vec<String>)>, String> {
    match frame.get("type").and_then(Json::as_str) {
        Some("ok") => {
            let record = frame.get("record").ok_or("ok frame without record")?;
            let record = JournalRecord::from_json(record)
                .map_err(|e| format!("unparseable ok frame: {e}"))?;
            Ok(Ok(record.summary))
        }
        Some("err") => {
            let error = frame.get("error").ok_or("err frame without error")?;
            let error =
                job_error_from_json(error).map_err(|e| format!("unparseable err frame: {e}"))?;
            let events = frame
                .get("events")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            Ok(Err((error, events)))
        }
        other => Err(format!("unexpected frame type {other:?} mid-job")),
    }
}

/// The error for a reaped worker. The allocator's failure marker on
/// stderr means the worker ran out of memory, whatever ended it (an
/// abort signal, or an exit); any other signal death is a kill, and a
/// plain exit mid-job breaks the protocol.
fn death_error(signal: Option<i32>, oom_marker: bool, status: &str) -> JobError {
    match signal {
        _ if oom_marker => JobError::OomKilled,
        Some(signal) => JobError::Killed { signal },
        None => JobError::ProtocolError {
            detail: format!("worker exited mid-job with {status}"),
        },
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Polite shutdown first (lets the worker exit cleanly), SIGKILL
        // if it dawdles.
        let _ = write_frame(
            &mut self.stdin,
            &Json::obj(vec![("type", Json::str("shutdown"))]),
        );
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    self.kill_now();
                    return;
                }
            }
        }
    }
}

thread_local! {
    /// This thread's worker slot. Sweep threads are scoped, so the TLS
    /// destructor (→ [`WorkerHandle::drop`]) reaps the child when the
    /// wave's threads exit.
    static WORKER: std::cell::RefCell<Option<WorkerHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// Run one job attempt on this thread's worker, spawning the child
/// first if the slot is empty. Transport failures discard the worker and
/// surface as a transient [`JobError`] so the supervisor's ordinary
/// retry/quarantine machinery applies.
pub(crate) fn run_job_attempt(
    cfg: &WorkerPoolConfig,
    spec: &JobSpec,
) -> Result<CellSummary, (JobError, Vec<String>)> {
    WORKER.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            match WorkerHandle::spawn(cfg) {
                Ok(w) => *slot = Some(w),
                Err(e) => {
                    return Err((
                        JobError::ProtocolError {
                            detail: format!("cannot start worker: {e}"),
                        },
                        Vec::new(),
                    ))
                }
            }
        }
        let Some(worker) = slot.as_mut() else {
            unreachable!("worker slot filled above")
        };
        match worker.dispatch(cfg, spec) {
            Dispatch::Done(outcome) => outcome,
            Dispatch::Lost(err, events) => {
                *slot = None; // dead or poisoned: never reuse
                Err((err, events))
            }
        }
    })
}

/// Shut down the calling thread's worker, if any. Sweep threads rely on
/// TLS destructors; the sweep's *own* thread (serial runs) calls this
/// explicitly at the end of the grid.
pub(crate) fn shutdown_local_worker() {
    WORKER.with(|slot| {
        *slot.borrow_mut() = None;
    });
}

/// PIDs of the live `redsoc worker` children of process `pid` — the
/// chaos harness's kill-storm targets. Linux-only (`/proc` walk);
/// returns empty elsewhere.
#[must_use]
pub fn worker_children_of(pid: u32) -> Vec<i32> {
    let mut found = Vec::new();
    let tasks = std::path::Path::new("/proc")
        .join(pid.to_string())
        .join("task");
    let Ok(tids) = std::fs::read_dir(&tasks) else {
        return found;
    };
    for tid in tids.flatten() {
        let Ok(children) = std::fs::read_to_string(tid.path().join("children")) else {
            continue;
        };
        for child in children.split_whitespace() {
            let Ok(child_pid) = child.parse::<i32>() else {
                continue;
            };
            let cmdline = std::path::Path::new("/proc").join(child).join("cmdline");
            let Ok(cmd) = std::fs::read_to_string(cmdline) else {
                continue;
            };
            if cmd.split('\0').any(|arg| arg == "worker") {
                found.push(child_pid);
            }
        }
    }
    found.sort_unstable();
    found
}

/// Deliver `signal` to `pid` (re-exported for the chaos harness).
#[must_use]
pub fn kill_pid(pid: i32, signal: i32) -> bool {
    send_signal(pid, signal)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn deaths_are_classified_on_their_evidence() {
        // The allocator's marker means OOM, with or without a signal and
        // whether or not a memory budget was set.
        assert_eq!(death_error(Some(6), true, "signal: 6"), JobError::OomKilled);
        assert_eq!(
            death_error(None, true, "exit status: 1"),
            JobError::OomKilled
        );
        assert_eq!(
            death_error(Some(9), false, "signal: 9"),
            JobError::Killed { signal: 9 }
        );
        assert!(matches!(
            death_error(None, false, "exit status: 0"),
            JobError::ProtocolError { detail } if detail.contains("exit status: 0")
        ));
    }

    #[test]
    fn spawn_failure_surfaces_as_a_transient_protocol_error() {
        let cfg = WorkerPoolConfig::new(PathBuf::from("/nonexistent/redsoc-worker"));
        let spec = JobSpec {
            bench: "crc".into(),
            core: "BIG".into(),
            mem_model: "classic".into(),
            mode: "baseline".into(),
            trace_len: 2000,
            digest: "d".into(),
            attempt: 1,
            budget: None,
            ts_base: None,
            fault: None,
        };
        let err = run_job_attempt(&cfg, &spec).unwrap_err();
        assert_eq!(err.0.kind(), "protocol");
        assert!(err.0.is_transient(), "retries must apply to spawn failures");
    }

    #[test]
    fn worker_discovery_handles_missing_proc_entries() {
        // PID 0 has no /proc entry; the walk must degrade to empty.
        assert!(worker_children_of(0).is_empty());
    }
}
