//! Open-loop `/estimate` load generator with exact per-request samples.
//!
//! Request `k` is due at `t0 + k / rate` whatever happened to earlier
//! requests, so a stall delays every later request and that delay is
//! charged to them: latency is measured from the scheduled send time, not
//! from the moment a connection happened to be free (no coordinated
//! omission). A fixed pool of keep-alive connections, one per thread, takes
//! the next due request as soon as it is free.

use crate::http::Conn;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What happened to one scheduled request.
#[derive(Clone)]
pub struct Outcome {
    /// Index into the request list.
    pub index: usize,
    /// Due time to last response byte, ms.
    pub latency_ms: f64,
    /// How late the generator sent it, ms, when its thread was idle at the
    /// due time (`None` when every connection was still busy, which is
    /// queueing in front of the system, not generator lateness).
    pub lag_ms: Option<f64>,
    /// HTTP status; 0 for a transport error or timeout.
    pub status: u16,
    /// The server's own `latency_ms` field (`NaN` when absent).
    pub server_ms: f64,
    /// The response's `cached` field.
    pub cached: bool,
    /// The response's `batch_size` field.
    pub batch_size: f64,
    /// The response's `model_version` field.
    pub version: u64,
    /// The response's `estimate` field (`NaN` when absent).
    pub estimate: f64,
}

impl Outcome {
    /// 2xx within `limit_ms` of its due time.
    pub fn good(&self, limit_ms: f64) -> bool {
        (200..300).contains(&self.status) && self.latency_ms <= limit_ms
    }

    /// Any 2xx reply.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Send `bodies[k]` as `POST /estimate` at `rate` requests per second over
/// `conns` connections; run `during` on the calling thread meanwhile. With
/// `stop_after_during`, no request is sent once `during` has returned;
/// otherwise every body is sent. Returns one outcome per request sent, in
/// schedule order.
pub fn open_loop<T>(
    addr: &str,
    bodies: &[String],
    rate: f64,
    conns: usize,
    timeout: Duration,
    stop_after_during: bool,
    during: impl FnOnce() -> T,
) -> (Vec<Outcome>, T) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(bodies.len()));
    let mut conns_ready: Vec<Conn> = (0..conns.max(1))
        .map(|_| {
            let mut c = Conn::new(addr, timeout);
            // Connect up front; a failure here surfaces on the first send.
            let _ = c.connect();
            c
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let extra = std::thread::scope(|scope| {
        for conn in conns_ready.iter_mut() {
            let (next, results, stop) = (&next, &results, &stop);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= bodies.len() || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(k as f64 / rate.max(f64::MIN_POSITIVE));
                    let idle = Instant::now() <= due;
                    if idle {
                        // Sleep to within a millisecond of the due time, then
                        // spin, so timer slack does not show up as latency.
                        let early = due - Duration::from_millis(1);
                        std::thread::sleep(early.saturating_duration_since(Instant::now()));
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                    }
                    let sent = Instant::now();
                    let reply = conn.request("POST", "/estimate", bodies[k].as_bytes());
                    let end = Instant::now();
                    let mut out = Outcome {
                        index: k,
                        latency_ms: (end - due).as_secs_f64() * 1e3,
                        lag_ms: idle.then(|| (sent - due).as_secs_f64() * 1e3),
                        status: 0,
                        server_ms: f64::NAN,
                        cached: false,
                        batch_size: f64::NAN,
                        version: 0,
                        estimate: f64::NAN,
                    };
                    if let Ok(resp) = reply {
                        out.status = resp.status;
                        let doc = resp.json();
                        let num = |key: &str| doc.get(key).and_then(Value::as_f64);
                        out.server_ms = num("latency_ms").unwrap_or(f64::NAN);
                        out.batch_size = num("batch_size").unwrap_or(f64::NAN);
                        out.estimate = num("estimate").unwrap_or(f64::NAN);
                        out.cached = doc.get("cached").and_then(Value::as_bool) == Some(true);
                        out.version = doc
                            .get("model_version")
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                    }
                    local.push(out);
                }
                results
                    .lock()
                    .expect("a load thread panicked while publishing")
                    .extend(local);
            });
        }
        let extra = during();
        if stop_after_during {
            stop.store(true, Ordering::Relaxed);
        }
        extra
    });
    let mut all = results.into_inner().expect("load threads joined");
    all.sort_by_key(|o| o.index);
    (all, extra)
}
