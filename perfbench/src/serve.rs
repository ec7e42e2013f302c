//! `serve-zipf`: an in-process `QueryServer` driven closed-loop over two
//! keep-alive connections.
//!
//! The query stream is a seeded Zipf mix over a ρ grid of optimal-p (all
//! four §4.1 metrics), reachability-curve and `/v1/batch` requests. The
//! grid is larger than the `cache_bytes` budget holds, so a small, steady
//! share of lookups misses: each miss builds a ring-model sweep and evicts
//! an entry. Set-up is server start + an in-process warm pass; the
//! measured operation is one request; `throughput_per_s` counts requests.
//!
//! The grid, the Zipf rank order and the optimal-p questions follow
//! `bench_serve`: densities over the paper's [20, 146], rank k ↦ the k-th
//! lowest density, and one constraint per metric. The curve `p` values are
//! the Fig. 8 grid 0.05..1.00. The 80/15/5 split between optimal-p, curve
//! and batch requests and the batch length of eight have no source; they
//! are chosen so optimal-p stays the bulk of the traffic, as it is all of
//! `bench_serve`'s, while curves and batches still come tens of thousands
//! of times a run.

use crate::obsview::Window;
use crate::report::{median, quantile, tail_q, Outcome};
use crate::spans::{self, SpanLog, BENCH};
use crate::RunArgs;
use nss_model::rng::{derive_seed, splitmix64};
use nss_serve::{QueryServer, QueryService, ServeConfig};
use std::hash::{DefaultHasher, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Densities on the grid: `RHO0 + RHO_STEP · k` for `k < RHOS`, which
/// spans [20, 146].
pub const RHOS: usize = 505;
pub const RHO0: f64 = 20.0;
pub const RHO_STEP: f64 = 0.25;
/// Zipf exponent over the grid (rank k ↦ density k).
pub const ZIPF_S: f64 = 2.0;
pub const SHARDS: usize = 4;
/// Bytes one sweep is charged (≈29 KB at `QUAD_POINTS`).
pub const ENTRY_BYTES: usize = 29_200;
/// Sweeps the budget holds: 288 of the 505, about 72 per shard, so no
/// sweep is refused with 503 while ≈0.1% of lookups miss.
pub const RESIDENT: usize = 288;
pub const CACHE_BYTES: usize = RESIDENT * ENTRY_BYTES;
pub const QUAD_POINTS: usize = 64;
/// Load connections and server workers.
pub const CONNS: usize = 2;
pub const BATCH_LEN: usize = 8;

/// The four §4.1 metrics with `bench_serve`'s constraint for each.
pub const METRICS: [(&str, f64); 4] = [
    ("reach-at-latency", 5.0),
    ("latency-for-reach", 0.6),
    ("broadcasts-for-reach", 0.6),
    ("reach-under-budget", 35.0),
];
/// Reachability curves are asked at `p = k/20`, `k = 1..=20`.
pub const CURVE_PS: u64 = 20;
/// Distinct single questions per density: the metrics, then the curves.
const PER_RHO: usize = METRICS.len() + CURVE_PS as usize;

pub fn rho(k: usize) -> f64 {
    RHO0 + RHO_STEP * k as f64
}

/// One optimal-p question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ask {
    pub rho: usize,
    pub metric: usize,
}

impl Ask {
    fn path(&self) -> String {
        let (metric, c) = METRICS[self.metric];
        format!(
            "/v1/optimal-p?rho={}&metric={metric}&constraint={c}",
            rho(self.rho)
        )
    }

    fn json(&self) -> String {
        let (metric, c) = METRICS[self.metric];
        format!(
            "{{\"rho\":{},\"metric\":\"{metric}\",\"constraint\":{c}}}",
            rho(self.rho)
        )
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Optimal(Ask),
    Curve { rho: usize, p: u64 },
    Batch(Vec<Ask>),
}

/// Zipf(s) cumulative weights over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    cdf.iter_mut().for_each(|w| *w /= acc);
    cdf
}

/// A stateless draw stream: `next()` returns successive 64-bit values.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn rank(&mut self, cdf: &[f64]) -> usize {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    fn ask(&mut self, cdf: &[f64]) -> Ask {
        Ask {
            rho: self.rank(cdf),
            metric: (self.next() % METRICS.len() as u64) as usize,
        }
    }
}

/// The `i`-th request of connection `conn`: a pure function of the seed.
/// 80% optimal-p, 15% reachability curves, 5% batches of eight.
pub fn query(seed: u64, conn: usize, i: u64, cdf: &[f64]) -> Query {
    let mut d = Draws(derive_seed(
        seed,
        "serve-zipf.query",
        ((conn as u64) << 48) | i,
    ));
    match d.next() % 100 {
        0..=79 => Query::Optimal(d.ask(cdf)),
        80..=94 => Query::Curve {
            rho: d.rank(cdf),
            p: 1 + d.next() % CURVE_PS,
        },
        _ => Query::Batch((0..BATCH_LEN).map(|_| d.ask(cdf)).collect()),
    }
}

impl Query {
    /// `(method, path, body)` of the HTTP request.
    pub fn request(&self) -> (&'static str, String, String) {
        match self {
            Query::Optimal(a) => ("GET", a.path(), String::new()),
            Query::Curve { rho: r, p } => (
                "GET",
                format!("/v1/reachability?rho={}&p={}", rho(*r), *p as f64 / 20.0),
                String::new(),
            ),
            Query::Batch(asks) => {
                let items: Vec<String> = asks.iter().map(Ask::json).collect();
                (
                    "POST",
                    "/v1/batch".to_string(),
                    format!("{{\"queries\":[{}]}}", items.join(",")),
                )
            }
        }
    }

    /// The answer `service` gives in-process.
    pub fn answer(&self, service: &QueryService) -> Result<String, nss_serve::ApiError> {
        match self {
            Query::Optimal(a) => {
                let (metric, c) = METRICS[a.metric];
                service.optimal_p(rho(a.rho), metric, c)
            }
            Query::Curve { rho: r, p } => service.reachability(rho(*r), *p as f64 / 20.0),
            Query::Batch(_) => service.batch(self.request().2.as_bytes()),
        }
    }

    /// Index of a single question among the `RHOS · PER_RHO` of the grid.
    fn slot(&self) -> Option<usize> {
        match self {
            Query::Optimal(a) => Some(a.rho * PER_RHO + a.metric),
            Query::Curve { rho, p } => Some(rho * PER_RHO + METRICS.len() + *p as usize - 1),
            Query::Batch(_) => None,
        }
    }
}

/// Cache-outcome tallies read from response bodies: hit, miss, coalesced.
pub type Labels = [u64; 3];

/// Copies `body` into `out` with every `"cache":"<label>"` replaced by
/// `"cache":"*"`, and tallies the labels; `None` if a label is not one of
/// hit, miss, coalesced. The label says how this request found the cache,
/// so it is the one part of a response that may differ from the
/// in-process answer.
pub fn normalize_into(body: &str, out: &mut String) -> Option<Labels> {
    const KEY: &str = "\"cache\":\"";
    out.clear();
    let mut labels = [0u64; 3];
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        let end = rest.find('"')?;
        let slot = ["hit", "miss", "coalesced"]
            .iter()
            .position(|l| *l == &rest[..end])?;
        labels[slot] += 1;
        out.push('*');
        rest = &rest[end..];
    }
    out.push_str(rest);
    Some(labels)
}

pub fn normalize(body: &str) -> Option<(String, Labels)> {
    let mut out = String::with_capacity(body.len());
    normalize_into(body, &mut out).map(|labels| (out, labels))
}

/// 64-bit digest of a normalized body.
fn digest(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(body.as_bytes());
    h.finish()
}

/// Reference answers, computed in-process: the length and digest of the
/// normalized answer to every single question of the grid. Only these are
/// kept, so the reference adds little to the run's peak RSS.
pub struct Reference {
    expected: Vec<Option<(usize, u64)>>,
}

impl Reference {
    pub fn empty() -> Reference {
        Reference {
            expected: vec![None; RHOS * PER_RHO],
        }
    }

    /// Records `service`'s answer to the single question `q`.
    pub fn add(&mut self, service: &QueryService, q: &Query) -> Result<(), String> {
        let slot = q.slot().ok_or("a batch has no reference slot")?;
        let body = q.answer(service).map_err(|e| e.message)?;
        let (norm, _) = normalize(&body).ok_or("unlabelled reference answer")?;
        self.expected[slot] = Some((norm.len(), digest(&norm)));
        Ok(())
    }

    /// Answers every single question of the grid, density by density, on
    /// a service that holds only a few sweeps: each sweep is built once and
    /// dropped soon after.
    pub fn build() -> Result<Reference, String> {
        let service = QueryService::new(1, 4 * ENTRY_BYTES, QUAD_POINTS);
        let mut reference = Reference::empty();
        for r in 0..RHOS {
            for metric in 0..METRICS.len() {
                reference.add(&service, &Query::Optimal(Ask { rho: r, metric }))?;
            }
            for p in 1..=CURVE_PS {
                reference.add(&service, &Query::Curve { rho: r, p })?;
            }
        }
        Ok(reference)
    }

    /// Strips the reference answer to the single question `q` off the
    /// front of `norm` (a normalized body); `None` if it is not there.
    fn strip<'a>(&self, q: &Query, norm: &'a str) -> Option<&'a str> {
        let (len, hash) = self.expected[q.slot()?]?;
        let head = norm.get(..len)?;
        (digest(head) == hash).then(|| &norm[len..])
    }

    /// True when `norm` (a normalized body) is byte-equal to the reference
    /// answer to `q`, up to the digest.
    pub fn matches(&self, q: &Query, norm: &str) -> bool {
        let Query::Batch(asks) = q else {
            return self.strip(q, norm) == Some("");
        };
        // `{"results":[a1,a2,…]}`, compared piece by piece.
        let Some(mut rest) = norm.strip_prefix("{\"results\":[") else {
            return false;
        };
        for (k, a) in asks.iter().enumerate() {
            if k > 0 {
                let Some(r) = rest.strip_prefix(',') else {
                    return false;
                };
                rest = r;
            }
            match self.strip(&Query::Optimal(*a), rest) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        rest == "]}"
    }
}

/// Checks one response: status 200 and a body byte-equal to the reference
/// once the cache labels are normalized (`buf` is scratch). Returns the
/// labels when it passes.
pub fn check_response(
    reference: &Reference,
    q: &Query,
    status: u16,
    body: &[u8],
    buf: &mut String,
) -> Option<Labels> {
    let text = std::str::from_utf8(body).ok()?;
    let labels = normalize_into(text, buf)?;
    (status == 200 && reference.matches(q, buf)).then_some(labels)
}

/// One keep-alive HTTP/1.1 connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends one request and reads one `Content-Length`-framed response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        let mut out = self.buf[head_end + 4..].to_vec();
        while out.len() < len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            out.extend_from_slice(&chunk[..n]);
        }
        out.truncate(len);
        Ok((status, out))
    }
}

/// What one load connection saw.
struct Load {
    /// Latency of each request in nanoseconds, saturating at `u32::MAX`.
    samples: Vec<u32>,
    failed: u64,
    labels: Labels,
    log: SpanLog,
    /// Nanoseconds this connection ran, on its own clock.
    wall_ns: u64,
}

fn drive(
    addr: SocketAddr,
    conn: usize,
    args: &RunArgs,
    start: Instant,
    cdf: &[f64],
    reference: &Reference,
) -> Load {
    let mut load = Load {
        // Room for every connection's requests at up to 60k/s, reserved
        // up front: growing by doubling would make the peak RSS depend on
        // how many requests a run completes. Untouched pages cost nothing.
        samples: Vec::with_capacity((args.seconds * 60_000.0) as usize * CONNS),
        failed: 0,
        labels: [0; 3],
        log: SpanLog::new(args.traced, conn as u32 + 1),
        wall_ns: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        load.failed += 1;
        return load;
    };
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut log = std::mem::replace(&mut load.log, SpanLog::new(false, 0));
    log.span(BENCH, "client.loop", |log| {
        let mut scratch = String::new();
        let mut i = 0u64;
        while start.elapsed() < deadline {
            let q = query(args.seed, conn, i, cdf);
            let (method, path, body) = q.request();
            let t0 = Instant::now();
            let got = log.span("obs.http", "request", |_| client.send(method, &path, &body));
            let lat = t0.elapsed().as_nanos();
            load.samples.push(lat.min(u32::MAX as u128) as u32);
            let labels = match &got {
                Ok((status, bytes)) => check_response(reference, &q, *status, bytes, &mut scratch),
                Err(_) => None,
            };
            match labels {
                Some(l) => (0..3).for_each(|k| load.labels[k] += l[k]),
                None => load.failed += 1,
            }
            // A broken connection is replaced once per failure; if that
            // fails too, this connection stops.
            if got.is_err() {
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
            i += 1;
        }
    });
    load.wall_ns = start.elapsed().as_nanos() as u64;
    load.log = log;
    load
}

fn start_server() -> std::io::Result<QueryServer> {
    QueryServer::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CONNS,
        shards: SHARDS,
        cache_bytes: CACHE_BYTES,
        quad_points: QUAD_POINTS,
    })
}

/// Warm pass: one optimal-p question for each of the `RESIDENT` hottest
/// densities, coldest first, so the budget ends up holding the hot sweeps.
/// It asks the service in-process, on this thread. Over HTTP the sweeps
/// would land in the allocator arena of whichever worker thread served
/// them, and whether an earlier set-up's freed sweeps stay resident would
/// be left to chance.
fn warm(service: &QueryService) -> bool {
    (0..RESIDENT).rev().all(|r| {
        Query::Optimal(Ask { rho: r, metric: 0 })
            .answer(service)
            .is_ok()
    })
}

pub fn run(args: &RunArgs, log: &mut SpanLog) -> Outcome {
    let mut o = Outcome::default();
    let cdf = zipf_cdf(RHOS, ZIPF_S);

    // Set-up: server start + warm pass, repeated; the last server stays up.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..args.setups.max(1) {
        if let Some(mut old) = server.take() {
            QueryServer::shutdown(&mut old);
        }
        let t0 = Instant::now();
        let started = log.span("obs.http", "QueryServer::start", |_| start_server());
        let Ok(s) = started else {
            o.check(false);
            return o;
        };
        let ok = log.span("serve", "warm pass", |_| warm(s.service()));
        setup_s.push(t0.elapsed().as_secs_f64());
        o.check(ok);
        server = Some(s);
    }
    let Some(mut server) = server else { return o };
    o.e2e.set("setup_s", median(&setup_s));
    o.note("setup_peak_rss_mb", crate::report::peak_rss_mb());

    let reference = log.span(BENCH, "reference", |_| Reference::build());
    let reference = match reference {
        Ok(r) => r,
        Err(_) => {
            o.check(false);
            return o;
        }
    };
    o.note("reference_peak_rss_mb", crate::report::peak_rss_mb());

    // Measured window: closed loop over CONNS keep-alive connections.
    let service = server.service().clone();
    let before = service.cache_stats();
    let window = Window::open();
    let t0 = Instant::now();
    let addr = server.addr();
    let loads: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (cdf, reference) = (&cdf, &reference);
                scope.spawn(move || drive(addr, conn, args, t0, cdf, reference))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let obs = window.close();
    let after = service.cache_stats();

    // The first connection's samples take the others' in: its capacity is
    // reserved for both, so the merge needs no second buffer.
    let mut lat: Vec<u32> = Vec::new();
    let mut labels = [0u64; 3];
    let mut client_spans = Vec::new();
    let mut lane_wall = 0.0;
    for mut load in loads {
        o.attempted += load.samples.len() as u64;
        if lat.capacity() == 0 {
            lat = std::mem::take(&mut load.samples);
        } else {
            lat.extend_from_slice(&load.samples);
            load.samples = Vec::new();
        }
        (0..3).for_each(|k| labels[k] += load.labels[k]);
        o.failed += load.failed;
        lane_wall += load.wall_ns as f64 * 1e-9;
        client_spans.extend(load.log.spans);
    }
    lat.sort_unstable();
    let requests = lat.len();
    let lat_ms = |q: f64| -> f64 {
        let rank = (q * requests as f64).ceil() as usize;
        lat.get(rank.clamp(1, requests.max(1)) - 1)
            .map_or(0.0, |&ns| ns as f64 * 1e-6)
    };
    let (hits, misses, coalesced) = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.coalesced - before.coalesced,
    );
    // The labels the clients read must add up to the cache's own tallies.
    o.check([hits, misses, coalesced] == labels);
    let tail = tail_q(requests);
    o.e2e.set("throughput_per_s", requests as f64 / wall);
    o.e2e.set("op_p50_ms", lat_ms(0.5));
    o.e2e.set("op_tail_ms", lat_ms(tail));
    o.note("requests", requests);
    o.note("tail_quantile", tail);
    o.note("setup_s", format!("{setup_s:?}"));
    o.note("cache_labels_hit_miss_coalesced", format!("{labels:?}"));
    o.note("rejected", after.rejected - before.rejected);

    let l = &mut o.layers;
    let lookups = (hits + misses + coalesced).max(1) as f64;
    l.set("cache.hit_ratio", hits as f64 / lookups);
    l.set("cache.misses", misses as f64);
    l.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    l.set("cache.coalesced", coalesced as f64);
    l.set("cache.resident_bytes", after.resident_bytes as f64);

    if args.traced {
        // In-process self time of the service on hits: the first requests
        // of connection 0, answered by the same (warm) service.
        let mut self_s = Vec::new();
        for i in 0..20_000u64 {
            let q = query(args.seed, 0, i, &cdf);
            if matches!(q, Query::Batch(_)) {
                continue;
            }
            let t0 = Instant::now();
            let answer = log.span("serve", "QueryService", |_| q.answer(&service));
            let secs = t0.elapsed().as_secs_f64();
            if answer
                .as_deref()
                .is_ok_and(|b| b.contains("\"cache\":\"hit\""))
            {
                self_s.push(secs);
            }
        }
        self_s.sort_by(f64::total_cmp);
        // In-process misses: a fresh service builds every sweep it is asked.
        let cold = QueryService::new(1, 1 << 30, QUAD_POINTS);
        let mut build_s: Vec<f64> = (0..RHOS)
            .step_by(RHOS / 16)
            .map(|r| {
                let q = Query::Optimal(Ask { rho: r, metric: 0 });
                let t0 = Instant::now();
                let _ = log.span("analysis", "QueryService miss", |_| q.answer(&cold));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        build_s.sort_by(f64::total_cmp);
        let service_p50 = quantile(&self_s, 0.5);
        let build_p50 = quantile(&build_s, 0.5);
        l.set("service.self_p50_s", service_p50);
        l.set("service.self_p99_s", quantile(&self_s, 0.99));
        l.set("http.overhead_p50_s", lat_ms(0.5) * 1e-3 - service_p50);
        l.set("analysis.build_p50_s", build_p50);
        // Window time by layer: the clients' request spans, the server's
        // own request histogram, and the misses priced at the in-process
        // build time.
        let requests_s: f64 = client_spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(spans::Span::seconds)
            .sum();
        let server_s = obs.histogram_sum("serve.request.seconds");
        let analysis_s = (misses as f64 * build_p50).min(server_s);
        o.self_s = vec![
            ("obs.http".to_string(), requests_s - server_s),
            ("serve".to_string(), server_s - analysis_s),
            ("analysis".to_string(), analysis_s),
            (BENCH.to_string(), lane_wall - requests_s),
        ];
        o.layers
            .set("unattributed_frac", spans::unattributed_frac(&client_spans));
        o.note("service_hit_samples", self_s.len());
    }
    log.spans.extend(client_spans);
    server.shutdown();
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let cdf = zipf_cdf(RHOS, ZIPF_S);
        let a: Vec<Query> = (0..500).map(|i| query(7, 0, i, &cdf)).collect();
        let b: Vec<Query> = (0..500).map(|i| query(7, 0, i, &cdf)).collect();
        let c: Vec<Query> = (0..500).map(|i| query(8, 0, i, &cdf)).collect();
        let d: Vec<Query> = (0..500).map(|i| query(7, 1, i, &cdf)).collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "another seed, another stream");
        assert_ne!(a, d, "connections draw distinct streams");
        let kinds = |v: &[Query], f: fn(&Query) -> bool| v.iter().filter(|q| f(q)).count();
        assert!(kinds(&a, |q| matches!(q, Query::Optimal(_))) > 300);
        assert!(kinds(&a, |q| matches!(q, Query::Curve { .. })) > 40);
        assert!(kinds(&a, |q| matches!(q, Query::Batch(_))) > 5);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(RHOS, ZIPF_S);
        assert!((cdf[RHOS - 1] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 0.5 && cdf[9] > 0.9);
    }

    #[test]
    fn normalize_tallies_labels_and_rejects_unknown_ones() {
        let (n, l) = normalize(r#"{"results":[{"cache":"hit"},{"cache":"miss"}]}"#).unwrap();
        assert_eq!(n, r#"{"results":[{"cache":"*"},{"cache":"*"}]}"#);
        assert_eq!(l, [1, 1, 0]);
        assert!(normalize(r#"{"cache":"stale"}"#).is_none());
    }

    #[test]
    fn a_corrupted_body_or_status_fails_the_check() {
        let service = QueryService::new(1, 1 << 24, 16);
        let asks: Vec<Ask> = (0..3).map(|r| Ask { rho: r, metric: r }).collect();
        let mut reference = Reference::empty();
        for a in &asks {
            reference.add(&service, &Query::Optimal(*a)).unwrap();
        }
        let mut buf = String::new();
        let single = Query::Optimal(asks[1]);
        let hit = single.answer(&service).unwrap();
        let check = |q: &Query, status: u16, body: &[u8], buf: &mut String| {
            check_response(&reference, q, status, body, buf)
        };
        assert_eq!(
            check(&single, 200, hit.as_bytes(), &mut buf),
            Some([1, 0, 0])
        );
        let corrupted = hit.replacen("\"p\":", "\"p\":1", 1);
        assert_eq!(check(&single, 200, corrupted.as_bytes(), &mut buf), None);
        let mut flipped = hit.clone().into_bytes();
        let last = flipped.len() - 2;
        flipped[last] ^= 1;
        assert_eq!(check(&single, 200, &flipped, &mut buf), None);
        assert_eq!(check(&single, 503, hit.as_bytes(), &mut buf), None);
        // The right body for another question is a wrong answer.
        normalize_into(&hit, &mut buf).unwrap();
        assert!(!reference.matches(&Query::Optimal(asks[0]), &buf));
        assert!(reference.matches(&single, &buf));
        // A question the reference never answered matches nothing.
        assert!(!reference.matches(&Query::Optimal(Ask { rho: 9, metric: 0 }), &buf));

        let batch = Query::Batch(asks.clone());
        let body = batch.answer(&service).unwrap();
        assert_eq!(
            check(&batch, 200, body.as_bytes(), &mut buf),
            Some([3, 0, 0])
        );
        let truncated = body.replacen("},{", "}{", 1);
        assert_eq!(check(&batch, 200, truncated.as_bytes(), &mut buf), None);
        let relabelled = body.replacen("\"hit\"", "\"stale\"", 1);
        assert_eq!(check(&batch, 200, relabelled.as_bytes(), &mut buf), None);
        let extra = body.replacen("]}", ",{}]}", 1);
        assert_eq!(check(&batch, 200, extra.as_bytes(), &mut buf), None);
    }

    #[test]
    fn reference_slots_cover_the_grid_without_overlap() {
        let mut seen = vec![false; RHOS * PER_RHO];
        for r in 0..RHOS {
            let curves = (1..=CURVE_PS).map(|p| Query::Curve { rho: r, p });
            let asks = (0..METRICS.len()).map(|metric| Query::Optimal(Ask { rho: r, metric }));
            for q in asks.chain(curves) {
                let slot = q.slot().unwrap();
                assert!(!seen[slot], "slot {slot} used twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rho(RHOS - 1), 146.0);
    }
}
