//! A minimal blocking client for the daemon's line-delimited JSON
//! protocol. One request out, one response line back, per call — plus a
//! deterministic retry/backoff loop ([`Client::call_with_backoff`]) that
//! honours the server's shed hints.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use iuad_corpus::Paper;
use serde::Value;

use crate::fault::splitmix;

/// Deterministic retry policy for shed responses. The wait before retry
/// `k` (0-based) is `min(max(base_ms << k, retry_after_ms), cap_ms)`: the
/// server's `retry_after_ms` hint (when the response carries one — the
/// server knows its own queue) is a *floor* under the exponential curve,
/// which keeps growing for persistent congestion instead of hammering at
/// the hint interval. A seeded jitter of up to half the wait is added —
/// seeded, so a load-driver run replays the exact same pacing, yet
/// concurrent clients with different seeds still de-synchronize instead
/// of retry-stampeding in lockstep.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Retries after the first attempt (total attempts = `attempts + 1`).
    pub attempts: u32,
    /// First-retry wait in milliseconds (doubles per retry).
    pub base_ms: u64,
    /// Upper bound on any single wait, before jitter.
    pub cap_ms: u64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            attempts: 8,
            base_ms: 2,
            cap_ms: 64,
            jitter_seed: 0x5e7e,
        }
    }
}

impl Backoff {
    /// The wait before retry `attempt` (0-based), combining the
    /// exponential schedule, the server's hint, and seeded jitter.
    /// Advances the jitter stream (`rng`).
    fn wait(&self, attempt: u32, hint_ms: Option<u64>, rng: &mut u64) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(16));
        let base = exp.max(hint_ms.unwrap_or(0)).min(self.cap_ms.max(1));
        let jitter = splitmix(rng) % (base / 2 + 1);
        Duration::from_millis(base + jitter)
    }
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Send one request object; block for its response object.
    pub fn call(&mut self, request: &Value) -> std::io::Result<Value> {
        let json = serde_json::to_string(request)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.writer, "{json}")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        serde_json::from_str(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// [`Client::call`], retrying shed responses under `backoff`. Errors
    /// (transport or protocol) are returned immediately; a shed response
    /// is retried after the backoff wait — honouring the server's
    /// `retry_after_ms` hint when present — until a non-shed response or
    /// the attempt budget runs out, in which case the last shed response
    /// is returned (callers can tell from its `shed` field).
    pub fn call_with_backoff(
        &mut self,
        request: &Value,
        backoff: &Backoff,
    ) -> std::io::Result<Value> {
        let mut rng = backoff.jitter_seed;
        let mut response = self.call(request)?;
        for attempt in 0..backoff.attempts {
            if !response_shed(&response) {
                return Ok(response);
            }
            let hint = match response_field(&response, "retry_after_ms") {
                Some(Value::U64(ms)) => Some(*ms),
                _ => None,
            };
            std::thread::sleep(backoff.wait(attempt, hint, &mut rng));
            response = self.call(request)?;
        }
        Ok(response)
    }

    /// Build a request object from `op` plus extra fields.
    pub fn request(op: &str, fields: Vec<(&str, Value)>) -> Value {
        let op = ("op", Value::Str(op.to_owned()));
        crate::object(std::iter::once(op).chain(fields))
    }

    /// The `ingest` request for `paper`; the daemon assigns the id.
    pub fn ingest_request(paper: &Paper) -> Value {
        let authors = paper.authors.iter().map(|n| Value::U64(u64::from(n.0)));
        Client::request(
            "ingest",
            vec![
                ("authors", Value::Array(authors.collect())),
                ("title", Value::Str(paper.title.clone())),
                ("venue", Value::U64(u64::from(paper.venue.0))),
                ("year", Value::U64(u64::from(paper.year))),
            ],
        )
    }
}

/// One endpoint a [`FailoverClient`] knows about. The connection is
/// opened lazily and dropped on any transport error; `cooldown` is a
/// count of read picks to skip before re-probing a demoted endpoint —
/// counted in picks, not wall time, so failover schedules stay fully
/// deterministic under test.
#[derive(Debug)]
struct Endpoint {
    addr: SocketAddr,
    client: Option<Client>,
    cooldown: u32,
}

/// Picks a demoted endpoint sits out before the next health probe.
const DEMOTION_PICKS: u32 = 8;

impl Endpoint {
    fn new(addr: SocketAddr) -> Endpoint {
        Endpoint {
            addr,
            client: None,
            cooldown: 0,
        }
    }

    /// The live connection, dialing if necessary. `None` = demoted now.
    fn connect(&mut self) -> Option<&mut Client> {
        if self.client.is_none() {
            match Client::connect(self.addr) {
                Ok(client) => self.client = Some(client),
                Err(_) => {
                    self.demote();
                    return None;
                }
            }
        }
        self.client.as_mut()
    }

    fn demote(&mut self) {
        self.client = None;
        self.cooldown = DEMOTION_PICKS;
    }
}

/// A client that knows the whole replica set: writes go to the primary,
/// reads round-robin across healthy followers (falling back to the
/// primary when none is healthy). An endpoint is demoted on any transport
/// error or a failing `health` op — a follower whose replication link
/// died reports `ok:false` — and sits out `DEMOTION_PICKS` read picks
/// before being re-probed with `health`. After a primary failover,
/// [`FailoverClient::set_primary`] repoints writes at the new address.
#[derive(Debug)]
pub struct FailoverClient {
    primary: Endpoint,
    followers: Vec<Endpoint>,
    backoff: Backoff,
    next_read: usize,
}

impl FailoverClient {
    /// A client over one primary and any number of read followers.
    pub fn new(primary: SocketAddr, followers: &[SocketAddr], backoff: Backoff) -> FailoverClient {
        FailoverClient {
            primary: Endpoint::new(primary),
            followers: followers.iter().copied().map(Endpoint::new).collect(),
            backoff,
            next_read: 0,
        }
    }

    /// Repoint writes (and the read fallback) at a new primary address.
    pub fn set_primary(&mut self, addr: SocketAddr) {
        self.primary = Endpoint::new(addr);
    }

    /// Send a write to the primary under the retry/backoff policy. A
    /// transport error drops the connection and redials (the daemon may
    /// have restarted at the same address) before giving up.
    pub fn call_primary(&mut self, request: &Value) -> std::io::Result<Value> {
        let mut last_err = None;
        for _ in 0..=self.backoff.attempts {
            let Some(client) = self.primary.connect() else {
                // Dial failed; pace the redial like a shed retry.
                let mut rng = self.backoff.jitter_seed;
                std::thread::sleep(self.backoff.wait(0, None, &mut rng));
                continue;
            };
            match client.call_with_backoff(request, &self.backoff) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.primary.demote();
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "primary unreachable")
        }))
    }

    /// Send a read to the next healthy follower (round-robin), demoting
    /// endpoints that error or fail their health probe, falling back to
    /// the primary when every follower is out.
    pub fn call_read(&mut self, request: &Value) -> std::io::Result<Value> {
        for _ in 0..self.followers.len().max(1) {
            if self.followers.is_empty() {
                break;
            }
            let pick = self.next_read % self.followers.len();
            self.next_read = self.next_read.wrapping_add(1);
            let endpoint = &mut self.followers[pick];
            if endpoint.cooldown > 0 {
                endpoint.cooldown -= 1;
                // Cooldown expired on this pick: probe before trusting it.
                if endpoint.cooldown == 0 && !probe(endpoint) {
                    endpoint.demote();
                }
                continue;
            }
            let Some(client) = endpoint.connect() else {
                continue;
            };
            match client.call_with_backoff(request, &self.backoff) {
                Ok(response) => {
                    if response_field(&response, "error").is_some() && !response_ok(&response) {
                        // A structural refusal (e.g. a follower whose link
                        // failed) — not a shed; demote and move on.
                        endpoint.demote();
                        continue;
                    }
                    return Ok(response);
                }
                Err(_) => {
                    endpoint.demote();
                    continue;
                }
            }
        }
        // No healthy follower: the primary serves reads too.
        self.call_primary(request)
    }
}

/// Health-probe an endpoint: `true` only for a live connection answering
/// the `health` op with `ok:true`.
fn probe(endpoint: &mut Endpoint) -> bool {
    let Some(client) = endpoint.connect() else {
        return false;
    };
    match client.call(&Client::request("health", Vec::new())) {
        Ok(response) => response_ok(&response),
        Err(_) => false,
    }
}

/// Read a named field of a response object.
pub fn response_field<'v>(response: &'v Value, key: &str) -> Option<&'v Value> {
    response
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Whether a response carries `"ok": true`.
pub fn response_ok(response: &Value) -> bool {
    matches!(response_field(response, "ok"), Some(Value::Bool(true)))
}

/// Whether a response was load-shed (`"shed": true`).
pub fn response_shed(response: &Value) -> bool {
    matches!(response_field(response, "shed"), Some(Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full wait schedule a client with this policy would sleep
    /// through, given the server's per-retry hints.
    fn schedule(backoff: &Backoff, hints: &[Option<u64>]) -> Vec<Duration> {
        let mut rng = backoff.jitter_seed;
        hints
            .iter()
            .enumerate()
            .map(|(attempt, hint)| backoff.wait(attempt as u32, *hint, &mut rng))
            .collect()
    }

    #[test]
    fn backoff_schedule_is_a_pure_function_of_seed_and_hints() {
        let backoff = Backoff::default();
        let hints = [None, Some(12), None, Some(40), Some(3), None, None, None];
        // Two runs over the same seed and the same server hints produce
        // the identical sleep sequence — the jitter is a seeded stream,
        // not entropy, so a load-driver run replays its exact pacing.
        assert_eq!(schedule(&backoff, &hints), schedule(&backoff, &hints));
        // A different seed de-synchronizes the schedule (concurrent
        // clients must not retry-stampede in lockstep).
        let other = Backoff {
            jitter_seed: 0x00dd_ba11,
            ..backoff.clone()
        };
        assert_ne!(schedule(&backoff, &hints), schedule(&other, &hints));
    }

    #[test]
    fn server_hint_floors_the_exponential_term() {
        let backoff = Backoff {
            attempts: 8,
            base_ms: 2,
            cap_ms: 64,
            jitter_seed: 1,
        };
        // Attempt 0: the exponential term is base_ms = 2ms; a 50ms server
        // hint must floor the wait at 50ms (before jitter, capped at
        // 50 + 50/2).
        let mut rng = backoff.jitter_seed;
        let wait = backoff.wait(0, Some(50), &mut rng);
        assert!(wait >= Duration::from_millis(50), "hint floors the wait");
        assert!(wait <= Duration::from_millis(75), "jitter is at most half");
        // Once the exponential term passes the hint, the curve keeps
        // growing instead of hammering at the hint interval: attempt 5
        // gives 2 << 5 = 64 ≥ 50.
        let mut rng = backoff.jitter_seed;
        let late = backoff.wait(5, Some(50), &mut rng);
        assert!(late >= Duration::from_millis(64));
        // And the cap bounds everything: a hint beyond cap_ms clamps.
        let mut rng = backoff.jitter_seed;
        let capped = backoff.wait(0, Some(10_000), &mut rng);
        assert!(capped <= Duration::from_millis(64 + 32));
    }
}
