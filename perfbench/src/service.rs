//! `service-n40`: the `batch-n40` instance family sent through
//! `SolveService` (2 workers, cache on).
//!
//! Phase 1 is open loop: one generator thread sends requests at a fixed
//! rate, and each request is timed from its scheduled send time. One
//! request in four repeats an instance first sent at least one second
//! earlier, so the cache serves reads beside the writes of fresh solves.
//! The schedule is replayed on a fresh service several times; each request
//! keeps its best latency, which removes interference from other tenants
//! while keeping the queueing the service causes itself (it is the same in
//! every replay). Phase 2 submits a block of fresh requests at once and
//! reports the rate at which the fleet completes them.

use crate::layers::Layers;
use crate::stats::{median, ms_since, quantile, BestOf};
use crate::{Outcome, Probe};
use mrlc_core::{verify_tree, MrlcInstance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsn_obs::Obs;
use wsn_service::{Completion, ServiceConfig, ServiceOutcome, SolveRequest, SolveService, Ticket};

/// Offered rate of the open-loop phase, requests per second.
const RATE: f64 = 64.0;
/// Share of the run spent in the open-loop phase, over all replays.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Replays of the open-loop schedule, each on a fresh service.
const REPLAYS: usize = 3;
/// Saturation-block requests per second of run time: at about 125 rps of
/// capacity the block fills most of the remaining time.
const BURST_PER_SECOND: f64 = 40.0;
/// Admission-queue capacity: room for the whole saturation block.
const QUEUE_CAPACITY: usize = 4096;
/// The latency limit the fixed rate must meet at p99.
pub const P99_LIMIT_MS: f64 = 200.0;
/// A request is late when the generator sends it this long after its slot.
const LATE_MS: f64 = 5.0;
/// Requests in the determinism probe, sent one at a time.
const PROBE_OPS: usize = 16;
/// Longest a ticket may take to resolve before it counts as lost.
const TICKET_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Setup {
    /// Instance per open-loop request (repeats share an instance).
    schedule: Vec<Arc<MrlcInstance>>,
    burst: Vec<MrlcInstance>,
    seed: u64,
    service: Option<SolveService>,
}

impl Setup {
    /// Every distinct generated instance, in send order.
    pub fn instances(&self) -> impl Iterator<Item = &MrlcInstance> {
        self.schedule.iter().map(|i| &**i).chain(&self.burst)
    }
}

fn start_service(seed: u64) -> SolveService {
    SolveService::start(ServiceConfig {
        workers: 2,
        queue_capacity: QUEUE_CAPACITY,
        seed,
        cache: true,
        ..ServiceConfig::default()
    })
}

/// Generates every instance the run sends and starts the service. The
/// service binds its metrics to the collector installed on this thread.
pub fn setup(seed: u64, seconds: f64) -> Setup {
    let requests = (RATE * seconds * OPEN_LOOP_SHARE / REPLAYS as f64).ceil() as usize;
    let burst = ((BURST_PER_SECOND * seconds).ceil() as usize).min(QUEUE_CAPACITY);
    let per_second = RATE as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e41_11ce);
    let fresh_count = (0..requests).filter(|&i| !is_repeat(i, per_second)).count();
    let spec = crate::solve::BATCH_N40;
    let mut fresh = crate::solve::instances(spec.n, spec.p, fresh_count + burst, seed)
        .into_iter()
        .map(Arc::new);
    let mut schedule: Vec<Arc<MrlcInstance>> = Vec::with_capacity(requests);
    for i in 0..requests {
        if is_repeat(i, per_second) {
            // Repeat an instance first sent at least one second earlier.
            let j = rng.random_range(0..=i - per_second);
            schedule.push(schedule[j].clone());
        } else {
            schedule.push(fresh.next().expect("enough fresh instances"));
        }
    }
    let burst = fresh.map(|i| (*i).clone()).collect();
    Setup { schedule, burst, seed, service: Some(start_service(seed)) }
}

fn is_repeat(i: usize, per_second: usize) -> bool {
    i >= per_second && i % 4 == 3
}

/// Drains the service a set-up started, for set-ups that are only timed.
pub fn discard(mut s: Setup) {
    if let Some(svc) = s.service.take() {
        svc.drain();
    }
}

/// Checks one completion: a typed outcome carrying a spanning tree that
/// meets LC. Returns the tree's paper cost.
fn check(inst: &MrlcInstance, c: Option<Completion>) -> Result<(f64, Completion), String> {
    let c = c.ok_or("ticket did not resolve")?;
    let ServiceOutcome::Solved(out) = &c.outcome else {
        return Err(format!("request {} ended {}", c.id, c.outcome.kind()));
    };
    let v = {
        let _s = wsn_obs::span("verify_tree");
        verify_tree(inst, &out.tree)
    };
    if !v.is_valid_spanning_tree || !v.meets_lc {
        return Err(format!("request {}: tree fails verification", c.id));
    }
    Ok((v.paper_cost, c))
}

/// Sends the first requests one at a time through a fresh service and
/// returns the summed tree cost, which must not depend on the run.
pub fn probe(s: &Setup, seed: u64, obs: Arc<Obs>) -> Probe {
    let _g = wsn_obs::install(obs.clone());
    let t = Instant::now();
    let svc = start_service(seed);
    let mut probe = Probe::default();
    for inst in s.schedule.iter().take(PROBE_OPS) {
        let ticket = svc.submit(SolveRequest::new((**inst).clone()));
        match check(inst, ticket.wait_timeout(TICKET_TIMEOUT)) {
            Ok((cost, _)) => probe.tree_cost += cost,
            Err(e) => probe.failures.push(e),
        }
    }
    if !svc.drain().no_leaked_workers() {
        probe.failures.push("probe service leaked workers".into());
    }
    probe.wall_ms = ms_since(t);
    probe.counters.push(("svc.completed".into(), obs.registry().counter("svc.completed").get()));
    probe
}

/// One open-loop send, handed from the generator to the waiter.
struct Sent {
    index: usize,
    lag_ms: f64,
    ticket: Ticket,
}

/// What the generator observed in one open-loop replay.
#[derive(Default)]
struct Generator {
    lags_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
}

/// Sends `schedule` to `svc` at `RATE` from this thread while a waiter
/// thread resolves tickets in send order. Returns each request's index,
/// lateness at send, and completion.
fn open_loop(
    svc: &SolveService,
    schedule: &[Arc<MrlcInstance>],
    obs: &Arc<Obs>,
    generator: &mut Generator,
) -> Vec<(usize, f64, Option<Completion>)> {
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let waiter_obs = obs.clone();
        let waiter = scope.spawn(move || {
            let _g = wsn_obs::install(waiter_obs);
            rx.into_iter()
                .map(|sent| {
                    let c = {
                        let _s = wsn_obs::span("Ticket::wait");
                        sent.ticket.wait_timeout(TICKET_TIMEOUT)
                    };
                    (sent.index, sent.lag_ms, c)
                })
                .collect::<Vec<_>>()
        });
        let t0 = Instant::now();
        for (index, inst) in schedule.iter().enumerate() {
            let due = Duration::from_secs_f64(index as f64 / RATE);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let lag_ms = (t0.elapsed().saturating_sub(due)).as_secs_f64() * 1e3;
            let req = SolveRequest::new((**inst).clone());
            generator.depths.push(svc.queue_depth() as f64);
            let t = Instant::now();
            let ticket = {
                let _s = wsn_obs::span("SolveService::submit");
                svc.submit(req)
            };
            generator.submit_us.push(ms_since(t) * 1e3);
            generator.lags_ms.push(lag_ms);
            tx.send(Sent { index, lag_ms, ticket }).expect("waiter is alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    })
}

/// Drains `svc`, counting a leaked worker as a failure.
fn drain(svc: SolveService, out: &mut Outcome) {
    out.attempted += 1;
    if !svc.drain().no_leaked_workers() {
        out.failures.push("drain leaked workers".into());
    }
}

pub fn run(mut s: Setup, obs: Arc<Obs>) -> Outcome {
    let traced = obs.tracing_enabled();
    let _g = wsn_obs::install(obs.clone());
    let mut svc = s.service.take().expect("set-up started the service");
    let mut out = Outcome::default();
    let mut costs = Vec::new();

    // Phase 1: the open-loop schedule, replayed. A request's latency is its
    // lateness at send plus the service's submit-to-resolution time, so a
    // stalled generator shows up in the latency it imposes.
    let schedule = &s.schedule;
    let mut best = BestOf::new(schedule.len());
    let mut every_ms = Vec::new();
    let mut generator = Generator::default();
    let mut cached = 0usize;
    let mut solved_ms = Vec::new();
    for replay in 0..REPLAYS {
        if replay > 0 {
            drain(svc, &mut out);
            svc = start_service(s.seed);
        }
        for (index, lag_ms, c) in open_loop(&svc, schedule, &obs, &mut generator) {
            out.attempted += 1;
            match check(&schedule[index], c) {
                Ok((cost, c)) => {
                    let ms = lag_ms + c.latency_ms;
                    best.record(index, ms);
                    every_ms.push(ms);
                    if replay == 0 {
                        costs.push(cost);
                    }
                    if c.attempts == 0 {
                        cached += 1;
                    } else {
                        solved_ms.push(c.latency_ms);
                    }
                }
                Err(e) => out.failures.push(e),
            }
        }
    }
    out.latencies_ms = best.latencies_ms();

    // Phase 2: the saturation block.
    let t_burst = Instant::now();
    let tickets: Vec<(f64, Ticket)> = s
        .burst
        .iter()
        .map(|inst| {
            let offset_ms = ms_since(t_burst);
            let _s = wsn_obs::span("SolveService::submit");
            (offset_ms, svc.submit(SolveRequest::new(inst.clone())))
        })
        .collect();
    let mut last_ms: f64 = 0.0;
    for ((offset_ms, ticket), inst) in tickets.iter().zip(&s.burst) {
        out.attempted += 1;
        let c = {
            let _s = wsn_obs::span("Ticket::wait");
            ticket.wait_timeout(TICKET_TIMEOUT)
        };
        match check(inst, c) {
            Ok((cost, c)) => {
                last_ms = last_ms.max(offset_ms + c.latency_ms);
                costs.push(cost);
            }
            Err(e) => out.failures.push(e),
        }
    }
    out.throughput_per_s = s.burst.len() as f64 / (last_ms / 1e3);
    out.tree_cost = crate::stats::mean(&costs);

    let reg = obs.registry();
    let counter = |name: &str| reg.counter(name).get() as f64;
    let (retries, shed, restarts) =
        (counter("svc.retries"), counter("svc.shed"), counter("svc.worker_restarts"));
    let exact = counter("svc.outcome.exact");
    drain(svc, &mut out);

    let lags = &generator.lags_ms;
    let late = lags.iter().filter(|&&l| l > LATE_MS).count();
    let lag_max = lags.iter().copied().fold(0.0, f64::max);
    if late > 0 {
        eprintln!(
            "warning: the generator fell behind its schedule on {late} of {} sends \
             (max {lag_max:.1} ms late); latencies include that wait",
            lags.len()
        );
    }
    // The tail as it happened, over every replay's requests.
    let p99 = quantile(&every_ms, 0.99);
    out.headline.push(("latency_p99_ms", p99, "ms"));
    out.headline.push(("saturated_rps", out.throughput_per_s, "1/s"));
    out.headline.push(("offered_rps", RATE, "1/s"));
    out.headline.push(("p99_within_limit", f64::from(u8::from(p99 <= P99_LIMIT_MS)), "bool"));
    out.headline.push(("generator_late_sends", late as f64, "count"));

    if traced {
        let mut l = Layers::default();
        let Generator { submit_us, depths, .. } = &generator;
        l.set("svc.submit_us_p50", median(submit_us));
        l.set("svc.submit_us_p99", quantile(submit_us, 0.99));
        l.set("svc.queue_depth_p50", median(depths));
        l.set("svc.queue_depth_max", depths.iter().copied().fold(0.0, f64::max));
        // Little's law, W = L / λ: an estimate from sampled depths.
        l.set("svc.queue_wait_ms", crate::stats::mean(depths) / RATE * 1e3);
        l.set("svc.solved_ms_p50", median(&solved_ms));
        l.set("svc.solved_ms_p99", quantile(&solved_ms, 0.99));
        l.set("svc.cache_hits", cached as f64);
        l.set("svc.fresh_solves", solved_ms.len() as f64);
        l.set("svc.cache_hit_ratio", cached as f64 / (REPLAYS * schedule.len()) as f64);
        l.set("svc.retries", retries);
        l.set("svc.shed", shed);
        l.set("svc.worker_restarts", restarts);
        l.set("svc.exact_share", exact / counter("svc.completed").max(1.0));
        l.set("svc.generator_lag_ms_p99", quantile(lags, 0.99));
        l.set("svc.generator_lag_ms_max", lag_max);
        out.layers = l;
    }
    out
}
