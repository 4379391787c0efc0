//! `serve-open`: `ResolverService::durable` with `ServeConfig::default()`
//! and `DurabilityConfig::default()`, at τ = 0.3 on Product ×8.
//!
//! Set-up preloads the corpus's first half into a `DurableResolver`,
//! closes it and recovers it; every trial streams the second half in
//! batches of 8 through a service over its own recovered engine. The
//! gated trials are a closed loop of 16 callers over an engine whose
//! log and snapshots live in a `MemDir`: the same WAL, snapshot and
//! recovery code without the shared disk's timing, which moved these
//! numbers by up to a third between runs. Then, over an `FsDir` on
//! local disk, an open loop: an ingest client submits with `try_ingest`
//! on a fixed schedule, a query client sends `resolve` calls on
//! preloaded records on a schedule of its own, and a collector thread
//! waits on the ingest tickets, with latency counted from each
//! request's due time — first at the nominal rate, then up a fixed rate
//! ladder until a rate misses the latency limit or its backlog grows.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crowder_durable::{Dir, DurabilityConfig, DurableResolver, FsDir, MemDir};
use crowder_obs::Snapshot;
use crowder_serve::{IngestRecord, ResolverService, ServeConfig, TrySubmit};
use crowder_stream::StreamConfig;
use crowder_types::{Dataset, RecordId, ScoredPair, SourceId};

use crate::corpus::{largest_component_share, machine_pairs, product_x, Rng};
use crate::stats::{median, ms, percentile, sustained_rate, Rung, Timed};
use crate::trace::{Span, Tracer, BENCH};
use crate::{Args, Outcome};

const SCALE: usize = 8;
const THRESHOLD: f64 = 0.3;
/// Records per ingest batch.
const BATCH: usize = 8;
/// The nominal ingest rate, records per second, and the query rate.
const NOMINAL_RPS: f64 = 2000.0;
const QUERY_RPS: f64 = 100.0;
/// Closed-loop trials (each on its own engine) per second of
/// `--seconds`, at least [`MIN_CLOSED_TRIALS`].
const CLOSED_TRIALS_PER_S: f64 = 1.0 / 3.0;
const MIN_CLOSED_TRIALS: usize = 4;
/// The closed loop's callers, each with one batch in flight: enough to
/// keep the worker busy, so a trial measures the service rather than
/// thread wake-ups.
const CLIENTS: usize = 16;
/// The fixed open-loop rate ladder, records per second, starting at the
/// nominal rate. Each rung streams the second half on its own engine.
const LADDER: [f64; 3] = [NOMINAL_RPS, 3000.0, 4000.0];
/// Ack p99 limit, ms, of a sustained rate.
const LIMIT_MS: f64 = 250.0;
/// A trial whose ingest generator ran later than this at its p99, ms,
/// is invalid and left out.
const MAX_LATENESS_MS: f64 = 25.0;

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: THRESHOLD,
        ..StreamConfig::default()
    }
}

/// One recovered engine and how long its set-up steps took.
struct Prepared<D: Dir + Clone> {
    engine: DurableResolver<D>,
    total_s: f64,
    preload_s: f64,
    recover_s: f64,
}

/// Generate the corpus, preload its first half into a fresh durable
/// resolver in the empty `fs`, close it and recover it.
fn setup<D: Dir + Clone>(
    seed: u64,
    fs: D,
    tr: &mut Tracer,
    k: u64,
) -> Result<(Dataset, Prepared<D>), String> {
    let err = |e: crowder_types::Error| e.to_string();
    let start = Instant::now();
    let corpus = product_x(SCALE, seed);
    let (preload_s, recover_s, engine) = tr.span(BENCH, "setup", k, |tr| -> Result<_, String> {
        let t = Instant::now();
        let mut engine = DurableResolver::create(
            fs.clone(),
            corpus.name.clone(),
            corpus.schema.clone(),
            corpus.pair_space,
            stream_config(),
            DurabilityConfig::default(),
        )
        .map_err(err)?;
        for r in &corpus.records()[..corpus.len() / 2] {
            tr.span("durable", "DurableResolver::insert", k, |_| {
                engine.insert(r.source, r.fields.clone())
            })
            .map_err(err)?;
        }
        tr.span("durable", "DurableResolver::close", k, |_| engine.close())
            .map_err(err)?;
        let preload_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (engine, _) = tr
            .span("durable", "DurableResolver::recover", k, |_| {
                DurableResolver::recover(fs.clone(), stream_config(), DurabilityConfig::default())
            })
            .map_err(err)?;
        Ok((preload_s, t.elapsed().as_secs_f64(), engine))
    })?;
    Ok((
        corpus,
        Prepared {
            engine,
            total_s: start.elapsed().as_secs_f64(),
            preload_s,
            recover_s,
        },
    ))
}

/// One preloaded record to query, from the other source so that the
/// record itself must be among the matches.
struct Query {
    source: SourceId,
    fields: Vec<String>,
    target: RecordId,
}

/// What one trial's loop measured.
#[derive(Default)]
struct Segment {
    acks: Vec<Timed>,
    queries: Vec<Timed>,
    /// Batches accepted, in submission (= apply) order.
    accepted: Vec<usize>,
    acked: usize,
    refused: u64,
    failed: u64,
    query_misses: u64,
    depth: Vec<usize>,
    wall: Duration,
    spans: Vec<Vec<Span>>,
}

impl Segment {
    fn lateness_p99_ms(&self) -> f64 {
        let late: Vec<f64> = self.acks.iter().map(|t| ms(t.lateness())).collect();
        percentile(&late, 0.99)
            .or_else(|| percentile(&late, 0.9))
            .unwrap_or_else(|| late.iter().copied().fold(0.0, f64::max))
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.acks.iter().map(|t| ms(t.latency())).collect()
    }
}

/// How a trial drives its engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// A closed loop of this many callers, each with one batch in
    /// flight.
    Closed { clients: usize },
    /// Batches due on a fixed schedule at `rate` records per second,
    /// with queries at [`QUERY_RPS`] if `queries`.
    Open { rate: f64, queries: bool },
}

/// Drive `all` through `service` from this thread as a closed loop of
/// `clients` callers: each has one batch in flight (`ingest`, then wait
/// for its ticket) and sends its next batch as soon as it is acked.
/// Tickets resolve in submission order, so one thread waiting on the
/// oldest ticket plays every caller.
fn closed_loop<D: Dir + Clone + Send + 'static>(
    service: &ResolverService<D>,
    all: &[Vec<IngestRecord>],
    clients: usize,
    trace: bool,
    origin: Instant,
) -> Segment {
    let mut seg = Segment::default();
    let mut tr = Tracer::new(trace, origin, 0);
    let start = Instant::now();
    let mut pending = std::collections::VecDeque::new();
    let wait_oldest =
        |pending: &mut std::collections::VecDeque<_>, seg: &mut Segment, tr: &mut Tracer| {
            let Some((i, sent, ticket)) = pending.pop_front() else {
                return;
            };
            let ticket: crowder_serve::IngestTicket = ticket;
            match tr.span("serve", "IngestTicket::wait", i, |_| ticket.wait()) {
                Ok(_) => seg.acked += 1,
                Err(_) => seg.failed += 1,
            }
            let done = Instant::now();
            seg.acks.push(Timed {
                due: sent,
                sent,
                done,
            });
        };
    for (i, batch) in all.iter().enumerate() {
        while pending.len() >= clients {
            wait_oldest(&mut pending, &mut seg, &mut tr);
        }
        let sent = Instant::now();
        match tr.span("serve", "ingest", i as u64, |_| {
            service.ingest(batch.clone())
        }) {
            Ok(ticket) => {
                seg.accepted.push(i);
                pending.push_back((i as u64, sent, ticket));
            }
            Err(_) => seg.refused += 1,
        }
    }
    while !pending.is_empty() {
        wait_oldest(&mut pending, &mut seg, &mut tr);
    }
    seg.spans = vec![tr.into_spans()];
    seg.wall = start.elapsed();
    seg
}

/// Submit every batch of `all` at `rate` records per second, and
/// `queries` at [`QUERY_RPS`], until every ticket is answered.
fn open_loop<D: Dir + Clone + Send + 'static>(
    service: &ResolverService<D>,
    all: &[Vec<IngestRecord>],
    rate: f64,
    queries: &[Query],
    trace: bool,
    origin: Instant,
) -> Segment {
    let mut seg = Segment::default();
    let start = Instant::now();
    let t0 = start + Duration::from_millis(2);
    let batch_gap = BATCH as f64 / rate;
    let span_of = all.len() as f64 * batch_gap;
    let n_queries = if queries.is_empty() {
        0
    } else {
        (span_of * QUERY_RPS) as usize
    };
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut tr = Tracer::new(trace, origin, 1);
            let mut acks = Vec::new();
            let (mut ok, mut failed) = (0usize, 0u64);
            for (i, due, sent, ticket) in rx {
                let ticket: crowder_serve::IngestTicket = ticket;
                let r = tr.span("serve", "IngestTicket::wait", i, |_| ticket.wait());
                let done = Instant::now();
                match r {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
                acks.push(Timed { due, sent, done });
            }
            (acks, ok, failed, tr.into_spans())
        });
        let querier = s.spawn(move || {
            let mut tr = Tracer::new(trace, origin, 2);
            let mut timed = Vec::new();
            let mut misses = 0u64;
            for j in 0..n_queries {
                let due = t0 + Duration::from_secs_f64(j as f64 / QUERY_RPS);
                sleep_until(due);
                let q = &queries[j % queries.len()];
                let sent = Instant::now();
                let r = tr.span("serve", "resolve", j as u64, |_| {
                    service.resolve(q.source, q.fields.clone())
                });
                let done = Instant::now();
                match r {
                    Ok(view) if view.matches.iter().any(|m| m.record == q.target) => {}
                    _ => misses += 1,
                }
                timed.push(Timed { due, sent, done });
            }
            (timed, misses, tr.into_spans())
        });

        let mut tr = Tracer::new(trace, origin, 0);
        for (i, batch) in all.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 * batch_gap);
            sleep_until(due);
            let sent = Instant::now();
            let submitted = tr.span("serve", "try_ingest", i as u64, |_| {
                service.try_ingest(batch.clone())
            });
            match submitted {
                TrySubmit::Accepted(ticket) => {
                    seg.accepted.push(i);
                    tx.send((i as u64, due, sent, ticket))
                        .expect("collector outlives the submissions");
                }
                TrySubmit::Full(_) | TrySubmit::Closed(_) => seg.refused += 1,
            }
            seg.depth
                .push(tr.span("serve", "queue_depth", i as u64, |_| service.queue_depth()));
        }
        drop(tx);
        let (acks, ok, failed, ack_spans) = collector.join().expect("collector thread");
        let (timed, misses, query_spans) = querier.join().expect("query thread");
        seg.acks = acks;
        seg.acked = ok;
        seg.failed = failed;
        seg.queries = timed;
        seg.query_misses = misses;
        seg.spans = vec![tr.into_spans(), ack_spans, query_spans];
    });
    seg.wall = start.elapsed();
    seg
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The batch join over the preloaded half plus the accepted batches in
/// order, for the last accepted order asked about.
type Reference = Option<(Vec<usize>, Vec<ScoredPair>)>;

/// Shut the service down and check its final pairs against a batch
/// join over the preloaded half plus the accepted batches in order.
fn finish<D: Dir + Clone + Send + 'static>(
    service: ResolverService<D>,
    inputs: &Inputs,
    accepted: &[usize],
    reference: &mut Reference,
    tr: &mut Tracer,
) -> Result<(), String> {
    let served = tr
        .span("serve", "shutdown", 0, |_| service.shutdown())
        .map_err(|e| e.to_string())?
        .resolver
        .ranked_pairs();
    if reference
        .as_ref()
        .is_none_or(|(order, _)| order != accepted)
    {
        let corpus = &inputs.corpus;
        let mut arrived = Dataset::new(
            corpus.name.clone(),
            corpus.schema.clone(),
            corpus.pair_space,
        );
        let preloaded = corpus.records()[..corpus.len() / 2]
            .iter()
            .map(|r| (r.source, r.fields.clone()));
        let batches = accepted
            .iter()
            .flat_map(|&i| inputs.batches[i].iter().cloned());
        for (source, fields) in preloaded.chain(batches) {
            arrived
                .push_record(source, fields)
                .map_err(|e| e.to_string())?;
        }
        *reference = Some((accepted.to_vec(), machine_pairs(&arrived, THRESHOLD)));
    }
    let batch = &reference.as_ref().expect("reference computed").1;
    if &served == batch {
        Ok(())
    } else {
        Err(format!(
            "served {} pairs, batch join over the accepted order {}",
            served.len(),
            batch.len()
        ))
    }
}

/// Histogram sum and count deltas between two registry snapshots.
fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (f64, f64) {
    let get = |s: &Snapshot| {
        s.histogram(name)
            .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
    };
    let (a, b) = (get(before), get(after));
    (b.0 - a.0, b.1 - a.1)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let root: PathBuf = args.out.join(format!("serve-{}", std::process::id()));
    let result = run_in(args, &mut out, &mut tr, &root, origin);
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| out)
}

/// The inputs every engine sees, made from the first set-up's corpus.
struct Inputs {
    corpus: Dataset,
    batches: Vec<Vec<IngestRecord>>,
    queries: Vec<Query>,
}

impl Inputs {
    fn of(corpus: Dataset, seed: u64) -> Self {
        let half = corpus.len() / 2;
        let batches = corpus.records()[half..]
            .chunks(BATCH)
            .map(|chunk| chunk.iter().map(|r| (r.source, r.fields.clone())).collect())
            .collect();
        let mut rng = Rng::new(seed);
        let queries = (0..1024)
            .map(|_| {
                let r = &corpus.records()[rng.below(half)];
                Query {
                    source: SourceId(1 - r.source.0),
                    fields: r.fields.clone(),
                    target: r.id,
                }
            })
            .collect();
        Inputs {
            corpus,
            batches,
            queries,
        }
    }
}

/// One engine's segment plus its output check.
struct Trial {
    mode: Mode,
    seg: Segment,
    check: Result<(), String>,
    /// Worker-side registry deltas over the segment (traced runs).
    worker: Option<(Snapshot, Snapshot)>,
}

impl Trial {
    /// The trial as a rung of the open-loop ladder.
    fn rung(&self) -> Rung {
        let Mode::Open { rate, .. } = self.mode else {
            unreachable!("only open-loop trials are rungs");
        };
        let lat = self.seg.latencies_ms();
        let quarter = (lat.len() / 4).max(1).min(lat.len());
        Rung {
            rate,
            tail_ms: percentile(&lat, 0.99),
            early_ms: median(&lat[..quarter]),
            late_ms: median(&lat[lat.len() - quarter..]),
            failed: (self.seg.refused + self.seg.failed) as usize,
        }
    }

    /// Acknowledged records per second, first submission to last ack.
    fn throughput(&self) -> Option<f64> {
        let first = self.seg.acks.first()?.sent;
        let end = self.seg.acks.iter().map(|a| a.done).max()?;
        Some((self.seg.acked * BATCH) as f64 / (end - first).as_secs_f64())
    }
}

/// What the trials of one run share.
struct Trials<'a> {
    args: &'a Args,
    origin: Instant,
    root: &'a Path,
    inputs: Option<Inputs>,
    reference: Reference,
    engines: u64,
    /// Set-up seconds of the in-memory (gated) and on-disk engines.
    memory_setup_s: Vec<f64>,
    disk_setup_s: Vec<f64>,
    untraced_setup_s: Vec<f64>,
    traced_setup_s: Vec<f64>,
    preload_share: Vec<f64>,
    recover_share: Vec<f64>,
}

impl Trials<'_> {
    /// One engine per trial: set up, drive, shut down, check. Closed
    /// loops keep the engine's log and snapshots in a `MemDir`, open
    /// loops in an `FsDir` under the run's directory.
    fn run(&mut self, mode: Mode, tr: &mut Tracer) -> Result<Trial, String> {
        match mode {
            Mode::Closed { .. } => self.run_on(MemDir::new(), mode, tr),
            Mode::Open { .. } => {
                let path = self.root.join(format!("engine-{}", self.engines));
                if path.exists() {
                    std::fs::remove_dir_all(&path).map_err(|e| e.to_string())?;
                }
                let dir = FsDir::new(&path).map_err(|e| e.to_string())?;
                let trial = self.run_on(dir, mode, tr);
                let _ = std::fs::remove_dir_all(&path);
                trial
            }
        }
    }

    /// The traced run alternates untraced and traced set-ups to measure
    /// the recorder's and the spans' overhead on them.
    fn run_on<D: Dir + Clone + Send + 'static>(
        &mut self,
        dir: D,
        mode: Mode,
        tr: &mut Tracer,
    ) -> Result<Trial, String> {
        let (args, origin) = (self.args, self.origin);
        let traced_now = args.trace && self.engines % 2 == 1;
        let mut off = Tracer::new(false, origin, 0);
        if traced_now {
            crowder_obs::install_recorder();
        }
        let setup_tr = if traced_now { &mut *tr } else { &mut off };
        let (corpus, prepared) = setup(args.seed, dir, setup_tr, self.engines)?;
        crowder_obs::pause_recorder();
        self.engines += 1;
        match mode {
            Mode::Closed { .. } => self.memory_setup_s.push(prepared.total_s),
            Mode::Open { .. } => self.disk_setup_s.push(prepared.total_s),
        }
        if traced_now {
            self.traced_setup_s.push(prepared.total_s);
            self.preload_share
                .push(prepared.preload_s / prepared.total_s);
            self.recover_share
                .push(prepared.recover_s / prepared.total_s);
        } else {
            self.untraced_setup_s.push(prepared.total_s);
        }
        let inputs = self
            .inputs
            .get_or_insert_with(|| Inputs::of(corpus, args.seed));
        if args.trace {
            crowder_obs::install_recorder();
        }
        let before = args.trace.then(crowder_obs::snapshot);
        let service = ResolverService::durable(prepared.engine, ServeConfig::default());
        let seg = match mode {
            Mode::Closed { clients } => {
                closed_loop(&service, &inputs.batches, clients, args.trace, origin)
            }
            Mode::Open { rate, queries } => {
                let queries: &[Query] = if queries { &inputs.queries } else { &[] };
                open_loop(&service, &inputs.batches, rate, queries, args.trace, origin)
            }
        };
        let worker = before.map(|b| (b, crowder_obs::snapshot()));
        crowder_obs::pause_recorder();
        let check = finish(service, inputs, &seg.accepted, &mut self.reference, tr);
        Ok(Trial {
            mode,
            seg,
            check,
            worker,
        })
    }
}

fn run_in(
    args: &Args,
    out: &mut Outcome,
    tr: &mut Tracer,
    root: &Path,
    origin: Instant,
) -> Result<(), String> {
    let mut trials = Trials {
        args,
        origin,
        root,
        inputs: None,
        reference: None,
        engines: 0,
        memory_setup_s: Vec::new(),
        disk_setup_s: Vec::new(),
        untraced_setup_s: Vec::new(),
        traced_setup_s: Vec::new(),
        preload_share: Vec::new(),
        recover_share: Vec::new(),
    };

    // Gated: the closed loop of CLIENTS callers.
    let mut closed = Vec::new();
    let n_closed = ((args.seconds * CLOSED_TRIALS_PER_S).round() as usize).max(MIN_CLOSED_TRIALS);
    for _ in 0..n_closed {
        closed.push(trials.run(Mode::Closed { clients: CLIENTS }, tr)?);
    }
    // Reported: the open loop at the nominal rate, then up the ladder
    // until a rate misses the limit or its backlog grows.
    let mut ladder: Vec<Trial> = Vec::new();
    for &rate in &LADDER {
        let t = trials.run(
            Mode::Open {
                rate,
                queries: rate == NOMINAL_RPS,
            },
            tr,
        )?;
        let passed = t.rung().passes(LIMIT_MS);
        ladder.push(t);
        if !passed {
            break;
        }
    }
    let Trials {
        inputs,
        engines,
        memory_setup_s,
        disk_setup_s,
        untraced_setup_s,
        traced_setup_s,
        preload_share,
        recover_share,
        ..
    } = trials;
    out.setups_s = memory_setup_s;
    let inputs = inputs.expect("at least one set-up");
    let (corpus, half) = (&inputs.corpus, inputs.corpus.len() / 2);

    let rungs: Vec<Rung> = ladder.iter().map(Trial::rung).collect();
    for r in &rungs {
        println!(
            "rung {} rec/s: ack p99 {:.3} ms, first quarter {:.3} ms, last quarter {:.3} ms, failed {}",
            r.rate,
            r.tail_ms.unwrap_or(f64::NAN),
            r.early_ms,
            r.late_ms,
            r.failed
        );
    }

    let trials: Vec<&Trial> = closed.iter().chain(&ladder).collect();
    out.attempted = trials
        .iter()
        .map(|t| t.seg.accepted.len() as u64 + t.seg.refused + t.seg.queries.len() as u64)
        .sum();
    out.failed = trials
        .iter()
        .map(|t| t.seg.refused + t.seg.failed + t.seg.query_misses)
        .sum();
    let unacked: usize = trials
        .iter()
        .map(|t| t.seg.accepted.len() - t.seg.acked)
        .sum();
    out.check(
        "every_accepted_ticket_acked",
        if unacked == 0 {
            Ok(())
        } else {
            Err(format!("{unacked} accepted batches were not acknowledged"))
        },
    );
    let misses: u64 = trials.iter().map(|t| t.seg.query_misses).sum();
    out.check(
        "queries_find_their_record",
        if misses == 0 {
            Ok(())
        } else {
            Err(format!("{misses} queries missed the queried record"))
        },
    );
    let mut exact = Ok(());
    for (k, t) in trials.iter().enumerate() {
        if let Err(e) = &t.check {
            exact = Err(format!("engine {k}: {e}"));
        }
    }
    out.check("served_pairs_equal_batch_join", exact);

    // The nominal open-loop trial is invalid, and left out, if its
    // generator fell behind.
    let nominal = &ladder[0];
    let late: Vec<f64> = nominal.seg.acks.iter().map(|a| ms(a.lateness())).collect();
    let valid = nominal.seg.lateness_p99_ms() <= MAX_LATENESS_MS;
    let open_or_nan = |v: Option<f64>| v.filter(|_| valid).unwrap_or(f64::NAN);
    let query_ms: Vec<f64> = nominal
        .seg
        .queries
        .iter()
        .map(|q| ms(q.latency()))
        .collect();

    // Medians over the closed-loop trials of each trial's statistic.
    let per_trial = |f: &dyn Fn(&Trial) -> Option<f64>| {
        median(&closed.iter().filter_map(f).collect::<Vec<_>>())
    };
    let throughput = per_trial(&Trial::throughput);
    let closed_p50 = per_trial(&|t| Some(median(&t.seg.latencies_ms())));
    let closed_p90 = per_trial(&|t| percentile(&t.seg.latencies_ms(), 0.9));
    let closed_p99 = per_trial(&|t| percentile(&t.seg.latencies_ms(), 0.99));

    let mut preloaded = Dataset::new(
        corpus.name.clone(),
        corpus.schema.clone(),
        corpus.pair_space,
    );
    for r in &corpus.records()[..half] {
        preloaded
            .push_record(r.source, r.fields.clone())
            .map_err(|e| e.to_string())?;
    }
    let preloaded_pairs: Vec<crowder_types::Pair> = machine_pairs(&preloaded, THRESHOLD)
        .iter()
        .map(|sp| sp.pair)
        .collect();
    out.prop("records", corpus.len());
    out.prop("preloaded_records", half);
    out.prop("gold_pairs", corpus.gold.len());
    out.prop("threshold", THRESHOLD);
    out.prop("preloaded_machine_pairs", preloaded_pairs.len());
    out.prop(
        "preloaded_largest_component_share",
        format!("{:.5}", largest_component_share(half, &preloaded_pairs)),
    );
    out.prop("batch_records", BATCH);
    out.prop("engines", engines);
    out.prop("nominal_rps", NOMINAL_RPS);
    out.prop("query_rps", QUERY_RPS);
    out.prop(
        "generator_late_ms",
        format!(
            "p99 {:.3}, max {:.3} (bound {MAX_LATENESS_MS} at p99)",
            nominal.seg.lateness_p99_ms(),
            late.iter().copied().fold(0.0, f64::max)
        ),
    );
    out.prop("open_loop_valid", valid);
    out.prop("ladder_rungs_run", rungs.len());
    out.prop("closed_loop_clients", CLIENTS);
    out.prop(
        "closed_loop_trial_rps",
        format!(
            "{:.1?}",
            closed
                .iter()
                .filter_map(Trial::throughput)
                .collect::<Vec<_>>()
        ),
    );

    let open_acks = nominal.seg.latencies_ms();
    out.detail(
        "serve_ack_p50_ms",
        open_or_nan(Some(median(&open_acks))),
        "ms",
    );
    out.detail(
        "serve_ack_p99_ms",
        open_or_nan(percentile(&open_acks, 0.99)),
        "ms",
    );
    out.detail(
        "serve_query_p90_ms",
        open_or_nan(percentile(&query_ms, 0.9)),
        "ms",
    );
    out.detail(
        "serve_sustained_rps",
        sustained_rate(&rungs, LIMIT_MS).unwrap_or(0.0),
        "rec/s",
    );
    out.detail("serve_disk_setup_s", median(&disk_setup_s), "s");
    out.detail("serve_closed_rps", throughput, "rec/s");
    out.detail("serve_closed_ack_p50_ms", closed_p50, "ms");
    out.detail("serve_closed_ack_p90_ms", closed_p90, "ms");
    out.detail("serve_closed_ack_p99_ms", closed_p99, "ms");
    out.detail(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );

    if args.trace {
        let wall: Duration = trials.iter().map(|t| t.seg.wall).sum();
        let wall_s = wall.as_secs_f64();
        let mut lists = Vec::new();
        for t in &trials {
            lists.extend(t.seg.spans.iter().cloned());
        }
        let client_spans = crate::trace::merge(lists);
        let rows = crate::trace::table(&client_spans);
        let client = |names: &[&str]| {
            names
                .iter()
                .filter_map(|n| rows.get(&("serve", *n)))
                .map(|r| r.self_ns as f64 / 1e9)
                .sum::<f64>()
                / wall_s
        };
        let worker = |name: &str| {
            trials
                .iter()
                .filter_map(|t| t.worker.as_ref())
                .map(|(b, a)| hist_delta(b, a, name))
                .fold((0.0, 0.0), |acc, d| (acc.0 + d.0, acc.1 + d.1))
        };
        let counter = |name: &str| {
            trials
                .iter()
                .filter_map(|t| t.worker.as_ref())
                .map(|(b, a)| (a.counter(name) - b.counter(name)) as f64)
                .sum::<f64>()
        };
        let depth: Vec<f64> = trials
            .iter()
            .flat_map(|t| t.seg.depth.iter().map(|&d| d as f64))
            .collect();
        let l = &mut out.layers;
        l.insert("serve.submit.share", client(&["try_ingest", "ingest"]));
        l.insert("serve.resolve.share", client(&["resolve"]));
        l.insert(
            "serve.queue_depth",
            depth.iter().sum::<f64>() / (depth.len() as f64).max(1.0),
        );
        l.insert(
            "serve.rejected",
            trials.iter().map(|t| t.seg.refused).sum::<u64>() as f64,
        );
        l.insert(
            "stream.insert.share",
            worker("stream.resolver.insert_ns").0 / 1e9 / wall_s,
        );
        l.insert(
            "stream.query.share",
            worker("stream.resolver.query_ns").0 / 1e9 / wall_s,
        );
        l.insert(
            "stream.candidates_per_insert",
            counter("simjoin.funnel.candidates") / counter("stream.resolver.inserts").max(1.0),
        );
        l.insert(
            "durable.fsync.share",
            worker("durable.wal.fsync_ns").0 / 1e9 / wall_s,
        );
        let (ops, flushes) = worker("durable.wal.batch_ops");
        l.insert("durable.wal.batch_ops", ops / flushes.max(1.0));
        l.insert(
            "durable.wal.bytes_per_record",
            counter("durable.wal.appended_bytes") / counter("durable.wal.frames_logged").max(1.0),
        );
        l.insert("durable.preload.setup_share", median(&preload_share));
        l.insert("durable.recover.setup_share", median(&recover_share));
        l.insert(
            "obs.trace_overhead",
            median(&traced_setup_s) / median(&untraced_setup_s),
        );
        // Coverage is taken over the single-threaded set-ups, where the
        // benchmark's own spans enclose every layer call.
        let own = std::mem::replace(tr, Tracer::new(false, origin, 0)).into_spans();
        let setup_spans: Vec<crate::trace::Span> = own
            .iter()
            .filter(|s| s.layer == BENCH || s.parent.is_some())
            .cloned()
            .collect();
        let setup_wall: u64 = setup_spans
            .iter()
            .filter(|s| s.layer == BENCH)
            .map(|s| s.duration_ns())
            .sum();
        l.insert(
            "obs.coverage",
            crate::trace::coverage(&setup_spans, setup_wall),
        );
        out.trace = Some((
            wall.as_nanos() as u64,
            crate::trace::merge(vec![own, client_spans]),
        ));
    } else {
        out.end_to_end = vec![
            ("throughput_per_s", throughput),
            ("latency_p50_ms", closed_p50),
            ("latency_tail_ms", closed_p90),
        ];
    }
    Ok(())
}
