//! The daemon, as `fgbs serve` builds it, under a closed loop of
//! keep-alive connections: each client sends its next request only when
//! the previous reply has arrived.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgbs_core::PipelineConfig;
use fgbs_serve::loadgen::read_response;
use fgbs_serve::{Request, Server, Service};
use fgbs_store::{ArtifactKind, Store};
use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};

use crate::layers::Sample;
use crate::spans;
use crate::stats::{median, Digest};

/// Connections of the closed loop, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Executor threads of the daemon.
pub const EXECUTORS: usize = 2;

/// One `/predict` key on a class-test suite (`k == 0` is the elbow).
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub suite: &'static str,
    pub target: &'static str,
    pub k: u32,
}

impl Key {
    fn k_label(&self) -> String {
        if self.k == 0 {
            "elbow".to_string()
        } else {
            self.k.to_string()
        }
    }

    fn path(&self) -> String {
        format!(
            "/predict?suite={}&class=test&target={}&k={}",
            self.suite,
            self.target,
            self.k_label()
        )
    }

    fn request(&self) -> Request {
        let query = [
            ("suite", self.suite),
            ("class", "test"),
            ("target", self.target),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .chain([("k".to_string(), self.k_label())])
        .collect();
        Request {
            method: "GET".to_string(),
            path: "/predict".to_string(),
            query,
            body: Vec::new(),
        }
    }
}

/// The traffic of one serve cycle.
#[derive(Debug)]
pub struct ServeSpec {
    /// Keys computed during set-up; the timed phase replays them from
    /// the store.
    pub hot: Vec<Key>,
    /// Keys first requested in the timed phase, each exactly once.
    pub cold: Vec<Key>,
    /// Further cold keys the traced phase sends through
    /// `Service::handle` in-process.
    pub inproc_cold: Vec<Key>,
    /// Hot requests in the timed phase, over all connections.
    pub hot_requests: usize,
}

/// A running daemon on a fresh store under the checkout.
pub struct Daemon {
    dir: PathBuf,
    service: Arc<Service>,
    server: Option<Server>,
    /// Each hot key's body, as computed during set-up.
    hot_bodies: Vec<Vec<u8>>,
}

/// What one timed phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub wall_s: f64,
    /// Per connection: summed latency of its hits and of its misses (s).
    pub split: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Hot bodies (set-up order) then cold bodies (key order).
    pub digest: String,
}

impl Daemon {
    /// Open the store, start the daemon and warm every hot key over a
    /// connection. Returns the daemon and the set-up seconds.
    pub fn start(spec: &ServeSpec, seed: u64, cycle: usize) -> io::Result<(Daemon, f64)> {
        let t0 = Instant::now();
        let mut daemon = Daemon::open(seed, cycle)?;
        let started = Server::start("127.0.0.1:0", EXECUTORS, Arc::clone(&daemon.service));
        let warmed = started.and_then(|server| {
            let mut client = Client::new(server.addr());
            daemon.server = Some(server);
            daemon.warm(spec, |key| client.get(&key.path()))
        });
        if let Err(e) = warmed {
            daemon.stop();
            return Err(e);
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// The same store and service with no server, the hot keys warmed
    /// through `Service::handle`.
    pub fn start_in_process(spec: &ServeSpec, seed: u64, cycle: usize) -> io::Result<Daemon> {
        let mut daemon = Daemon::open(seed, cycle)?;
        let service = Arc::clone(&daemon.service);
        if let Err(e) = daemon.warm(spec, |key| {
            let resp = service.handle(&key.request());
            Ok((resp.status, resp.body))
        }) {
            daemon.stop();
            return Err(e);
        }
        Ok(daemon)
    }

    /// A fresh store under the working directory and the service over
    /// it, as `fgbs serve` builds them.
    fn open(seed: u64, cycle: usize) -> io::Result<Daemon> {
        let dir = PathBuf::from(".bench_tmp").join(format!("serve-{}-{cycle}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir)?);
        let mut cfg = PipelineConfig::default().with_threads(1);
        cfg.noise_seed = seed;
        Ok(Daemon {
            dir,
            service: Arc::new(Service::new(cfg, store)),
            server: None,
            hot_bodies: Vec::new(),
        })
    }

    fn warm(
        &mut self,
        spec: &ServeSpec,
        mut get: impl FnMut(&Key) -> io::Result<(u16, Vec<u8>)>,
    ) -> io::Result<()> {
        for key in &spec.hot {
            let (status, body) = get(key)?;
            if status != 200 {
                return Err(io::Error::other(format!(
                    "warming {} gave {status}",
                    key.path()
                )));
            }
            self.hot_bodies.push(body);
        }
        Ok(())
    }

    /// The timed phase: both connections run their share of the seeded
    /// plan to completion.
    pub fn phase(&self, spec: &ServeSpec, seed: u64, traced: bool) -> Phase {
        let addr = self.server.as_ref().expect("server running").addr();
        let plans = plan(spec, seed);
        let computations = self.service.computations();
        let t0 = Instant::now();
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|p| scope.spawn(move || run_client(addr, spec, p, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.collect(spec, outs, t0.elapsed().as_secs_f64(), computations)
    }

    /// The timed phase without the socket: each connection's share of
    /// the plan in turn, every request through `Service::handle` on this
    /// thread. A socket round trip waits on thread wake-ups, and on a
    /// shared 2-vCPU host those moved the hit median twofold between runs
    /// of the same code; without them hits and misses are compute and
    /// store reads and writes.
    pub fn phase_in_process(&self, spec: &ServeSpec, seed: u64) -> Phase {
        let computations = self.service.computations();
        let t0 = Instant::now();
        let outs = plan(spec, seed)
            .iter()
            .map(|p| ClientOut {
                replies: p
                    .iter()
                    .map(|r| {
                        let key = if r.cold {
                            spec.cold[r.index]
                        } else {
                            spec.hot[r.index]
                        };
                        let req = key.request();
                        let t = Instant::now();
                        let resp = self.service.handle(&req);
                        let ns = t.elapsed().as_nanos() as u64;
                        Reply {
                            key,
                            cold: r.cold,
                            index: r.index,
                            reply: Some((resp.status, body_digest(&resp.body), ns)),
                        }
                    })
                    .collect(),
                failures: Vec::new(),
            })
            .collect();
        self.collect(spec, outs, t0.elapsed().as_secs_f64(), computations)
    }

    /// Check every reply and the computation count, and digest the
    /// bodies.
    fn collect(
        &self,
        spec: &ServeSpec,
        outs: Vec<ClientOut>,
        wall_s: f64,
        computations: u64,
    ) -> Phase {
        let mut phase = Phase {
            wall_s,
            ..Phase::default()
        };
        let mut cold_bodies: Vec<Option<u64>> = vec![None; spec.cold.len()];
        let hot_digests: Vec<u64> = self.hot_bodies.iter().map(|b| body_digest(b)).collect();
        for out in outs {
            phase.failures.extend(out.failures);
            let (mut hit_s, mut miss_s) = (0.0, 0.0);
            for r in out.replies {
                phase.attempted += 1;
                let Some((status, body, ns)) = r.reply else {
                    continue;
                };
                if status != 200 {
                    phase
                        .failures
                        .push(format!("{} answered {status}", r.key.path()));
                    continue;
                }
                if r.cold {
                    cold_bodies[r.index] = Some(body);
                    phase.miss_ns.push(ns);
                    miss_s += ns as f64 / 1e9;
                } else if body != hot_digests[r.index] {
                    phase
                        .failures
                        .push(format!("{} replayed a different body", r.key.path()));
                    continue;
                } else {
                    phase.hit_ns.push(ns);
                    hit_s += ns as f64 / 1e9;
                }
            }
            phase.split.push((hit_s, miss_s));
        }
        let computed = self.service.computations() - computations;
        phase.attempted += 1;
        if computed != spec.cold.len() as u64 {
            phase.failures.push(format!(
                "{computed} computations for {} cold keys",
                spec.cold.len()
            ));
        }
        let mut d = Digest::default();
        for h in &hot_digests {
            d.u64(*h);
        }
        for c in &cold_bodies {
            d.u64(c.unwrap_or(0));
        }
        phase.digest = d.hex();
        phase
    }

    /// The traced phase: the timed phase under client spans, then the
    /// daemon's layers called in-process.
    pub fn phase_traced(&self, spec: &ServeSpec, seed: u64) -> (Phase, Sample) {
        let store = Arc::clone(self.service.store());
        let before = (
            store.counters(),
            self.service.computations(),
            self.service.coalesced(),
            self.service.batches(),
        );
        spans::start();
        let mut phase = self.phase(spec, seed, true);
        let after = (
            store.counters(),
            self.service.computations(),
            self.service.coalesced(),
            self.service.batches(),
        );
        {
            let _root = spans::enter("bench.inproc");
            spans::timed("suites.build", || {
                drop((
                    nr_suite(Class::Test),
                    nas_suite(Class::Test),
                    bigdata_suite(Class::Test),
                ))
            });
            for m in store
                .list()
                .iter()
                .filter(|m| m.kind == ArtifactKind::Response)
            {
                for _ in 0..8 {
                    let got = spans::timed("store.get", || store.get(m.kind, &m.key));
                    if !matches!(got, Ok(Some(_))) {
                        phase
                            .failures
                            .push(format!("store lost response {}", m.key));
                    }
                }
            }
            for i in 0..INPROC_HITS {
                let h = i % spec.hot.len();
                let resp = spans::timed("serve.handle_hit", || {
                    self.service.handle(&spec.hot[h].request())
                });
                phase.attempted += 1;
                if resp.status != 200 || resp.body != self.hot_bodies[h] {
                    phase
                        .failures
                        .push(format!("in-process {} differs", spec.hot[h].path()));
                }
            }
            for key in &spec.inproc_cold {
                let resp =
                    spans::timed("serve.handle_miss", || self.service.handle(&key.request()));
                phase.attempted += 1;
                if resp.status != 200 {
                    phase.failures.push(format!(
                        "in-process {} answered {}",
                        key.path(),
                        resp.status
                    ));
                }
            }
            let payload = &self.hot_bodies[0];
            for i in 0..PUTS {
                let key = format!("{:032x}", 0x5e7_0000_u64 + i);
                if spans::timed("store.put", || {
                    store.put(ArtifactKind::Response, &key, payload)
                })
                .is_err()
                {
                    phase.failures.push(format!("store put {key} failed"));
                }
            }
        }
        let spans = spans::stop();

        let mut s = Sample::from_spans(&spans);
        s.wall_s = phase.wall_s;
        let per_call = |name: &str, scale: f64| -> f64 {
            let v: Vec<f64> = spans
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| sp.dur_ns() as f64 / scale)
                .collect();
            median(&v)
        };
        s.set("store.get_us", per_call("store.get", 1e3));
        s.set("store.put_ms", per_call("store.put", 1e6));
        let handle_hit_us = per_call("serve.handle_hit", 1e3);
        s.set("serve.handle_hit_us", handle_hit_us);
        s.set("serve.handle_miss_ms", per_call("serve.handle_miss", 1e6));
        let hits: Vec<f64> = phase.hit_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        s.set("serve.wire_us", median(&hits) - handle_hit_us);
        s.set("store.hits", (after.0.hits - before.0.hits) as f64);
        s.set("store.misses", (after.0.misses - before.0.misses) as f64);
        s.set("store.puts", (after.0.puts - before.0.puts) as f64);
        s.set(
            "serve.computations_per_cold_key",
            (after.1 - before.1) as f64 / spec.cold.len().max(1) as f64,
        );
        s.set("serve.coalesced", (after.2 - before.2) as f64);
        s.set("serve.batches", (after.3 - before.3) as f64);
        (phase, s)
    }

    /// Stop the daemon, delete its store and switch the tracing the
    /// service turned on back off.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        fgbs_trace::set_enabled(false);
        fgbs_trace::set_capacity(0);
        drop(fgbs_trace::drain());
        let _ = std::fs::remove_dir_all(&self.dir);
        // Only succeeds once the last daemon's store is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

const INPROC_HITS: usize = 2000;
const PUTS: u64 = 16;

/// One planned request: an index into the hot or the cold keys.
#[derive(Debug, Clone, Copy)]
struct Planned {
    cold: bool,
    index: usize,
}

/// The seeded request plan, one sequence per connection: hot requests
/// over the hot keys, and the connection's share of the cold keys (dealt
/// round-robin, in seeded order) each at a seeded place within its own
/// equal stretch of the sequence. Spreading the misses evenly keeps the
/// share of hits that overlap a miss alike for every seed.
fn plan(spec: &ServeSpec, seed: u64) -> Vec<Vec<Planned>> {
    let mut rng = SplitMix(seed ^ 0x5e7e_c0de);
    (0..CONNECTIONS)
        .map(|c| {
            let mut seq: Vec<Planned> = (0..spec.hot_requests / CONNECTIONS)
                .map(|_| Planned {
                    cold: false,
                    index: rng.below(spec.hot.len()),
                })
                .collect();
            let mut cold: Vec<usize> = (c..spec.cold.len()).step_by(CONNECTIONS).collect();
            for i in (1..cold.len()).rev() {
                cold.swap(i, rng.below(i + 1));
            }
            let stretch = (seq.len() / cold.len().max(1)).max(1);
            // Back to front, so earlier insertion points stay put.
            for (i, &index) in cold.iter().enumerate().rev() {
                let at = (i * stretch + rng.below(stretch)).min(seq.len());
                seq.insert(at, Planned { cold: true, index });
            }
            seq
        })
        .collect()
}

struct Reply {
    key: Key,
    cold: bool,
    index: usize,
    /// Status, body digest and latency; `None` on a connection error.
    reply: Option<(u16, u64, u64)>,
}

struct ClientOut {
    replies: Vec<Reply>,
    failures: Vec<String>,
}

fn run_client(addr: SocketAddr, spec: &ServeSpec, plan: &[Planned], traced: bool) -> ClientOut {
    let _root = traced.then(|| spans::enter("bench.client"));
    let mut client = Client::new(addr);
    let mut out = ClientOut {
        replies: Vec::with_capacity(plan.len()),
        failures: Vec::new(),
    };
    for p in plan {
        let key = if p.cold {
            spec.cold[p.index]
        } else {
            spec.hot[p.index]
        };
        let reply = match client.get_timed(&key.path(), p.cold) {
            Ok((status, body, ns)) => Some((status, body_digest(&body), ns)),
            Err(e) => {
                out.failures.push(format!("{}: {e}", key.path()));
                None
            }
        };
        out.replies.push(Reply {
            key,
            cold: p.cold,
            index: p.index,
            reply,
        });
    }
    out
}

fn body_digest(body: &[u8]) -> u64 {
    Digest::default().bytes(body).value()
}

/// A keep-alive HTTP client that reconnects when the server closes.
struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, Vec<u8>)>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.get_timed(path, false).map(|(s, b, _)| (s, b))
    }

    /// Send one request; returns status, body and the nanoseconds from
    /// writing the request to reading the whole reply.
    fn get_timed(&mut self, path: &str, cold: bool) -> io::Result<(u16, Vec<u8>, u64)> {
        if self.conn.is_none() {
            let stream = spans::timed("serve.connect", || TcpStream::connect(self.addr))?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_write_timeout(Some(Duration::from_secs(10)))?;
            stream.set_nodelay(true)?;
            self.conn = Some((stream, Vec::new()));
        }
        let (stream, residue) = self.conn.as_mut().expect("connected above");
        let _span = spans::enter(if cold {
            "serve.miss_wire"
        } else {
            "serve.hit_wire"
        });
        let t0 = Instant::now();
        let result = write!(stream, "GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n")
            .and_then(|()| stream.flush())
            .and_then(|()| read_response(stream, residue));
        let ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(reply) => {
                if reply.close {
                    self.conn = None;
                }
                Ok((reply.status, reply.body, ns))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// SplitMix64: the plan's seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServeSpec {
        let key = |k| Key {
            suite: "nr",
            target: "atom",
            k,
        };
        ServeSpec {
            hot: vec![key(0), key(4)],
            cold: vec![key(5), key(6), key(7)],
            inproc_cold: vec![],
            hot_requests: 10,
        }
    }

    #[test]
    fn plan_is_seeded_and_sends_each_cold_key_once() {
        let s = spec();
        let a = plan(&s, 3);
        let b = plan(&s, 3);
        let flat = |p: &Vec<Vec<Planned>>| -> Vec<(bool, usize)> {
            p.iter().flatten().map(|r| (r.cold, r.index)).collect()
        };
        assert_eq!(flat(&a), flat(&b));
        let mut cold: Vec<usize> = flat(&a).into_iter().filter(|r| r.0).map(|r| r.1).collect();
        cold.sort_unstable();
        assert_eq!(cold, vec![0, 1, 2]);
        assert_eq!(flat(&a).len(), 13);
        assert_ne!(flat(&a), flat(&plan(&s, 4)));
    }
}
