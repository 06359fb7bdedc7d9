//! The load generator: client threads, each with one keep-alive HTTP
//! connection, pulling jobs from a shared list either in a closed loop
//! (next job as soon as the previous reply is in, until a stop time) or on
//! an open-loop schedule (each job is due at a fixed offset and is timed
//! from that due time, so a stall also delays what was due behind it).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kgqan::QaService;
use kgqan_server::{ClientResponse, HttpClient};

use crate::stats::{block_rate, Samples};

/// One request to send.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload-specific operation tag.
    pub op: u8,
    /// Workload-specific payload index (question, read, batch).
    pub item: usize,
    /// Open loop: when the job is due, as an offset from the start.
    pub due: Option<Duration>,
    /// `POST` path.
    pub path: String,
    /// `content-type` of the body.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

/// What happened to one job.
#[derive(Debug, Clone)]
pub struct Record<R> {
    /// The job's operation tag.
    pub op: u8,
    /// The job's payload index.
    pub item: usize,
    /// When the request went on the wire.
    pub send: Instant,
    /// When the full response was read.
    pub recv: Instant,
    /// Latency in ms: from the due time on an open loop, from the send
    /// otherwise.  `None` for a failed request.
    pub latency_ms: Option<f64>,
    /// Open loop: how late the generator itself sent a job it was idle
    /// for (scheduling precision), in ms; `None` when the job was picked
    /// up late because every connection was busy.
    pub lateness_ms: Option<f64>,
    /// Response body size in bytes.
    pub body_bytes: usize,
    /// Pipeline backlog seen when the job was sent (traced runs only).
    pub queue_depth: usize,
    /// The checked reply, or why the request failed.
    pub reply: Result<R, String>,
}

/// Sleep until `due`.  The generator never spins: on a machine whose
/// cores the server needs, a spinning client would steal the time it is
/// measuring.  Timer slack shows up as generator lateness.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// How the jobs are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each job at its `due` offset from the start; runs until every job
    /// was sent.
    Open,
    /// Back to back, cycling through the jobs, until the stop time.
    Closed {
        /// Stop sending at this instant.
        until: Instant,
    },
    /// Back to back, each job exactly once.
    Once,
}

/// Drive `jobs` over `threads` connections to `addr` and check every
/// reply with `check`.  `sample` (traced runs) reads the pipeline backlog
/// at each send.
pub fn drive<R: Send>(
    addr: SocketAddr,
    threads: usize,
    jobs: &[Job],
    pace: Pace,
    start: Instant,
    sample: Option<&QaService>,
    check: &(dyn Fn(&Job, &ClientResponse) -> Result<R, String> + Sync),
) -> Vec<Record<R>> {
    let next = AtomicUsize::new(0);
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client =
                        HttpClient::connect(addr).with_timeout(Duration::from_secs(60));
                    let mut records = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let job = match pace {
                            Pace::Open | Pace::Once => match jobs.get(i) {
                                Some(job) => job,
                                None => break,
                            },
                            Pace::Closed { until } => {
                                if jobs.is_empty() || Instant::now() >= until {
                                    break;
                                }
                                &jobs[i % jobs.len()]
                            }
                        };
                        let due = match (pace, job.due) {
                            (Pace::Open, Some(offset)) => Some(start + offset),
                            _ => None,
                        };
                        let idle = due.is_some_and(|due| Instant::now() < due);
                        if let Some(due) = due {
                            wait_until(due);
                        }
                        let queue_depth = sample.map_or(0, QaService::queue_depth);
                        let send = Instant::now();
                        let response = client.request(
                            "POST",
                            &job.path,
                            Some(job.body.as_bytes()),
                            &[("content-type", job.content_type)],
                        );
                        let recv = Instant::now();
                        let from = due.unwrap_or(send);
                        let (reply, body_bytes) = match response {
                            Ok(response) => (check(job, &response), response.body.len()),
                            Err(e) => (Err(format!("transport error: {e}")), 0),
                        };
                        records.push(Record {
                            op: job.op,
                            item: job.item,
                            send,
                            recv,
                            latency_ms: reply
                                .is_ok()
                                .then(|| recv.duration_since(from).as_secs_f64() * 1e3),
                            lateness_ms: due
                                .filter(|_| idle)
                                .map(|due| send.duration_since(due).as_secs_f64() * 1e3),
                            body_bytes,
                            queue_depth,
                            reply,
                        });
                    }
                    records
                })
            })
            .collect();
        for worker in workers {
            all.extend(worker.join().expect("client thread panicked"));
        }
    });
    all.sort_by_key(|r| r.send);
    all
}

/// The status check every reply starts with: 2xx and a UTF-8 body.
pub fn ok_body(response: &ClientResponse) -> Result<&str, String> {
    let body = std::str::from_utf8(&response.body).map_err(|_| "body is not UTF-8".to_string())?;
    if (200..300).contains(&response.status) {
        Ok(body)
    } else {
        Err(format!(
            "status {}: {}",
            response.status,
            body.chars().take(200).collect::<String>()
        ))
    }
}

/// Latency samples of `records`; failures count as +∞.
pub fn latencies<'a, R: 'a>(records: impl IntoIterator<Item = &'a Record<R>>) -> Samples {
    let mut samples = Samples::new();
    records
        .into_iter()
        .for_each(|r| samples.record(r.latency_ms));
    samples
}

/// `(seconds into the window, latency)` of `records`, for
/// [`crate::stats::block_median`].
pub fn points<'a, R: 'a>(
    records: impl IntoIterator<Item = &'a Record<R>>,
    start: Instant,
) -> Vec<(f64, f64)> {
    records
        .into_iter()
        .map(|r| {
            (
                r.send.duration_since(start).as_secs_f64(),
                r.latency_ms.unwrap_or(f64::INFINITY),
            )
        })
        .collect()
}

/// Completed operations per second: the median over time blocks.
pub fn throughput<R>(records: &[Record<R>], start: Instant, window_s: f64) -> f64 {
    let done: Vec<f64> = records
        .iter()
        .filter(|r| r.reply.is_ok())
        .map(|r| r.recv.duration_since(start).as_secs_f64())
        .collect();
    block_rate(&done, window_s)
}
