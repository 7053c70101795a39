//! The load generator: one process driving one `lll-serve` daemon over
//! its stdin/stdout, with one writer thread and one reader thread.
//!
//! Every time here is taken on the client side with `Instant`. Phase A
//! pipelines requests as fast as the pipe takes them (throughput);
//! phase B sends pre-generated requests on a given schedule and times
//! each from when it was due (latency, open loop).

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A running daemon with its pipes. Dropping it kills the process.
pub struct Daemon {
    child: Mutex<Child>,
    pid: u32,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// One request as the writer sent it.
struct Sent {
    index: u64,
    due: Instant,
    /// How late the writer itself started the write: time past
    /// `max(due, end of the previous write)`.
    lag: Duration,
}

/// One answered (or unanswered) request of a phase.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Op index in the timed stream.
    pub index: u64,
    /// Response line; `None` if the daemon closed its output first.
    pub line: Option<String>,
    /// Seconds from due (phase B) or phase start (phase A) to the
    /// response.
    pub latency_s: f64,
    /// Writer lateness in seconds (phase B only).
    pub lag_s: f64,
}

/// What one load phase produced.
pub struct PhaseResult {
    /// Answers in send order.
    pub answers: Vec<Answer>,
    /// Phase start to the last response, in seconds.
    pub wall_s: f64,
}

impl Daemon {
    /// Starts `bin` with `flags`, its stderr discarded.
    pub fn spawn(bin: &Path, flags: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let pid = child.id();
        Ok(Daemon {
            child: Mutex::new(child),
            pid,
            stdin,
            stdout,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Sends one line and waits for its response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        send(&mut self.stdin, line)?;
        read_response(&mut self.stdout)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed stdout"))
    }

    /// Sends a shutdown request, checks the acknowledgement and waits
    /// for a clean exit (killing the daemon after `grace`).
    pub fn shutdown(mut self, grace: Duration) -> io::Result<()> {
        let ack = self.request("{\"id\":\"bye\",\"shutdown\":true}")?;
        let status = self.wait_or_kill(grace)?;
        if !ack.contains("\"status\":\"shutdown\"") || !status.success() {
            return Err(io::Error::other(format!(
                "unclean shutdown: ack {ack:?}, exit {status}"
            )));
        }
        Ok(())
    }

    /// Phase A: sends ops `first..` back to back for `duration`, with
    /// at most about `window` requests in flight, then waits for every
    /// response.
    pub fn pipelined(
        &mut self,
        first: u64,
        duration: Duration,
        window: usize,
        line: &(dyn Fn(u64) -> String + Sync),
        deadline: Duration,
    ) -> PhaseResult {
        self.phase(deadline, window, |stdin, tx, start| {
            let mut index = first;
            while start.elapsed() < duration {
                if send(stdin, &line(index)).is_err() {
                    break;
                }
                let sent = Sent {
                    index,
                    due: start,
                    lag: Duration::ZERO,
                };
                if tx.send(sent).is_err() {
                    break;
                }
                index += 1;
            }
        })
    }

    /// Phase B: sends `lines` (op index, text), each at its offset from
    /// the phase start, then waits for every response. Latency is
    /// measured from each request's due time.
    pub fn open_loop(
        &mut self,
        lines: Vec<(u64, String)>,
        offsets: &[Duration],
        deadline: Duration,
    ) -> PhaseResult {
        self.phase(deadline, 1 << 16, move |stdin, tx, start| {
            let mut free_at = start;
            for ((index, text), &offset) in lines.into_iter().zip(offsets) {
                let due = start + offset;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let began = Instant::now();
                if send(stdin, &text).is_err() {
                    break;
                }
                let sent = Sent {
                    index,
                    due,
                    lag: began.saturating_duration_since(due.max(free_at)),
                };
                free_at = Instant::now();
                if tx.send(sent).is_err() {
                    break;
                }
            }
        })
    }

    /// Runs `writer` on its own thread against a reader thread that pairs
    /// each sent request with the next response line. The writer blocks
    /// once `window` sent requests wait for the reader. A watchdog kills
    /// the daemon if the phase outlives `deadline`, which ends the reader
    /// at end of file.
    fn phase<W>(&mut self, deadline: Duration, window: usize, writer: W) -> PhaseResult
    where
        W: FnOnce(&mut ChildStdin, &mpsc::SyncSender<Sent>, Instant) + Send,
    {
        let Daemon {
            child,
            stdin,
            stdout,
            ..
        } = self;
        let child = &*child;
        let start = Instant::now();
        let (tx, rx) = mpsc::sync_channel::<Sent>(window);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let answers = std::thread::scope(|s| {
            s.spawn(move || {
                writer(stdin, &tx, start);
            });
            let watchdog = s.spawn(move || {
                if done_rx.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout) {
                    let _ = child.lock().expect("child lock poisoned").kill();
                }
            });
            let mut answers = Vec::new();
            let mut open = true;
            for sent in rx {
                let line = if open {
                    read_response(stdout).ok().flatten()
                } else {
                    None
                };
                open = line.is_some();
                let now = Instant::now();
                answers.push(Answer {
                    index: sent.index,
                    line,
                    latency_s: now.duration_since(sent.due).as_secs_f64(),
                    lag_s: sent.lag.as_secs_f64(),
                });
            }
            let _ = done_tx.send(());
            watchdog.join().expect("watchdog thread panicked");
            answers
        });
        PhaseResult {
            answers,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    fn wait_or_kill(&self, grace: Duration) -> io::Result<ExitStatus> {
        let start = Instant::now();
        loop {
            let mut child = self.child.lock().expect("child lock poisoned");
            if let Some(status) = child.try_wait()? {
                return Ok(status);
            }
            if start.elapsed() > grace {
                child.kill()?;
                return child.wait();
            }
            drop(child);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut child) = self.child.lock() {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

fn send(stdin: &mut ChildStdin, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stdin.write_all(&bytes)
}

fn read_response(out: &mut BufReader<ChildStdout>) -> io::Result<Option<String>> {
    let mut line = String::new();
    if out.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(Some(line))
}
