//! Concurrency stress test for the batched inference service: seeded
//! multi-threaded submitters hammer two models through a deliberately
//! undersized queue. The assertions are the service's bookkeeping
//! invariants — no request lost, none duplicated, every shed reported,
//! drain/shutdown leaves the queue empty, mid-run metrics scrapes are
//! never torn — plus the determinism contract under contention. Runs
//! in CI's release test profile (and in debug, with the same request
//! counts — the models are tiny).

use nm_compiler::{Options, PreparedGraph, Target};
use nm_core::sparsity::Nm;
use nm_core::Tensor;
use nm_integration::sparse_conv_fc_graph;
use nm_models::mlp_serve_sparse;
use nm_nn::graph::Graph;
use nm_nn::rng::XorShift;
use nm_serve::metrics::parse_text;
use nm_serve::{Service, ServiceConfig, SubmitError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SUBMITTERS: usize = 4;
const REQUESTS_PER_SUBMITTER: usize = 50;

/// A tiny conv graph so the stress mix covers the non-coalescible
/// executor path too.
fn tiny_conv_graph(nm: Nm) -> Arc<Graph> {
    Arc::new(sparse_conv_fc_graph(8, 4, nm, 21))
}

/// The input of submitter `t`'s `i`-th request to model `m` — a pure
/// function of the coordinates, so the expected output is computable
/// independently of the race.
fn request_input(shape: &[usize], t: usize, i: usize, m: usize) -> Tensor<i8> {
    let elems: usize = shape.iter().product();
    let seed = 5000 + (t as u64) * 1000 + (i as u64) * 10 + m as u64;
    Tensor::from_vec(shape, XorShift::new(seed).fill_weights(elems, 50)).unwrap()
}

#[test]
fn concurrent_submitters_lose_nothing_and_drain_clean() {
    let nm = Nm::ONE_OF_EIGHT;
    let graphs = [
        Arc::new(mlp_serve_sparse(&[64, 48, 32], nm, 5).unwrap()),
        tiny_conv_graph(nm),
    ];
    let opts = Options::new(Target::SparseIsa);
    // Ground truth per (model): outputs as a function of the input, via
    // a sequential prepared run outside the service.
    let prepared: Vec<_> = graphs
        .iter()
        .map(|g| PreparedGraph::prepare(g, &opts).unwrap())
        .collect();

    // Undersized queue + small batches: contention must produce sheds.
    let service = Service::start(ServiceConfig {
        queue_capacity: 8,
        max_batch: 4,
        workers: 2,
        ..ServiceConfig::default()
    });
    let ids: Vec<_> = graphs
        .iter()
        .enumerate()
        .map(|(m, g)| service.register(&format!("stress-{m}"), g, &opts).unwrap())
        .collect();

    // One completed request as the submitter recorded it: (submitter,
    // request index, model, response id, output, cycles — `Some` here
    // because the default service tier is cycle-accurate).
    type Completed = (usize, usize, usize, u64, Tensor<i8>, Option<u64>);

    // Each submitter fires its whole request stream without waiting
    // (so the undersized queue actually overflows), records every shed,
    // then waits for its own accepted tickets. Meanwhile a scraper
    // reads the metrics export and the stats under live contention:
    // every scrape must parse and pass `check_internal` (whose
    // per-model sums, per-class sheds and histogram counts are
    // equalities), and `stats()` must never show the terminal classes
    // above `submitted` nor a `shed` off its per-class sum.
    let submitters_done = AtomicBool::new(false);
    let (results, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut scrapes = 0u64;
            // Checks before testing the stop flag, so at least one
            // scrape lands whatever the timing.
            loop {
                let parsed = parse_text(&service.metrics_text())
                    .unwrap_or_else(|e| panic!("mid-run export must parse: {e}"));
                parsed
                    .check_internal()
                    .unwrap_or_else(|e| panic!("mid-run scrape is torn: {e}"));
                let s = service.stats();
                let terminals =
                    s.completed + s.failed + s.shed_expired + s.shed_canceled + s.shed_preempted;
                assert!(
                    terminals <= s.submitted,
                    "terminal classes {terminals} above submitted in {s:?}"
                );
                assert_eq!(
                    s.shed,
                    s.shed_full_by_class.iter().sum::<u64>(),
                    "shed off its per-class sum in {s:?}"
                );
                scrapes += 1;
                if submitters_done.load(Ordering::SeqCst) {
                    return scrapes;
                }
            }
        });
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (service, graphs, ids) = (&service, &graphs, &ids);
                scope.spawn(move || {
                    let mut rng = XorShift::new(900 + t as u64);
                    let mut shed = 0u64;
                    let mut tickets = Vec::new();
                    for i in 0..REQUESTS_PER_SUBMITTER {
                        let m = (rng.next_u64() % 2) as usize;
                        let input = request_input(graphs[m].input_shape(), t, i, m);
                        match service.submit(ids[m], input) {
                            Ok(ticket) => tickets.push((t, i, m, ticket)),
                            Err(SubmitError::Shed { capacity }) => {
                                assert_eq!(capacity, 8);
                                shed += 1;
                            }
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                    let done: Vec<_> = tickets
                        .into_iter()
                        .map(|(t, i, m, ticket)| {
                            let id = ticket.id();
                            let r = ticket.wait().expect("accepted request completes");
                            assert_eq!(r.id, id, "response routed to its ticket");
                            (t, i, m, r.id, r.output, r.sim_cycles)
                        })
                        .collect();
                    (done, shed)
                })
            })
            .collect();
        let results: Vec<(Vec<Completed>, u64)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        submitters_done.store(true, Ordering::SeqCst);
        (results, scraper.join().unwrap())
    });
    assert!(scrapes >= 1, "the scraper never scraped");

    // Every request is accounted for: accepted + shed == attempted.
    let accepted: u64 = results.iter().map(|(done, _)| done.len() as u64).sum();
    let shed: u64 = results.iter().map(|(_, s)| s).sum();
    assert_eq!(
        accepted + shed,
        (SUBMITTERS * REQUESTS_PER_SUBMITTER) as u64,
        "requests lost or invented"
    );
    assert!(
        shed > 0,
        "the undersized queue never shed — no backpressure exercised"
    );
    assert!(accepted > 0, "everything shed — nothing exercised");

    // No duplication: service-assigned ids are unique across threads.
    let unique: HashSet<u64> = results
        .iter()
        .flat_map(|(done, _)| done.iter().map(|&(_, _, _, id, _, _)| id))
        .collect();
    assert_eq!(unique.len() as u64, accepted, "duplicated response ids");

    // Determinism under contention: every response equals the
    // sequential run of its request's input.
    for (done, _) in &results {
        for (t, i, m, _, output, sim_cycles) in done {
            let input = request_input(graphs[*m].input_shape(), *t, *i, *m);
            let want = prepared[*m].run(&input).unwrap();
            assert_eq!(output, &want.output, "t={t} i={i} m={m}");
            assert_eq!(
                *sim_cycles,
                Some(want.matmul_compute_cycles),
                "t={t} i={i} m={m}"
            );
        }
    }

    // Drain leaves nothing queued or in flight; the final stats agree
    // with the per-thread tallies and the sheds were all counted.
    service.drain();
    assert_eq!(service.queue_depth(), 0, "drain left requests queued");
    let stats = service.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.failed, 0);
    assert!(stats.batches >= 1);
    assert!(stats.max_coalesced >= 1);
}

/// Submissions racing a shutdown. The submitter fires without waiting
/// (so sheds are genuinely reachable and tickets are outstanding when
/// the close lands) and stops at the first `Closed`. What must hold for
/// any timing: every attempt resolves to exactly one of
/// accepted/shed/closed, every *accepted* ticket completes even though
/// the service closed while it was in flight (close drains, never
/// drops), and the final counters reconcile with the submitter's tally.
#[test]
fn shutdown_races_submissions_without_losing_requests() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], nm, 5).unwrap());
    let opts = Options::new(Target::SparseIsa);
    let service = Service::start(ServiceConfig {
        queue_capacity: 16,
        max_batch: 4,
        workers: 2,
        ..ServiceConfig::default()
    });
    let model = service.register("race", &graph, &opts).unwrap();

    let (accepted, shed, closed, attempts) = std::thread::scope(|scope| {
        let service = &service;
        let submitter = scope.spawn(move || {
            let mut tickets = Vec::new();
            let (mut shed, mut closed, mut attempts) = (0u64, 0u64, 0u64);
            for i in 0..200usize {
                attempts += 1;
                let input = request_input(&[64], 0, i, 0);
                match service.submit(model, input) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(SubmitError::Shed { .. }) => shed += 1,
                    Err(SubmitError::Closed) => {
                        closed += 1;
                        break;
                    }
                    Err(e) => panic!("unexpected submit error: {e:?}"),
                }
            }
            let accepted = tickets.len() as u64;
            // Accepted-before-close requests must complete after the
            // close — this wait crosses the close boundary for every
            // ticket still in flight when it landed.
            for ticket in tickets {
                ticket.wait().expect("accepted request completes");
            }
            (accepted, shed, closed, attempts)
        });
        // Let the submitter make progress, then close underneath it.
        std::thread::sleep(std::time::Duration::from_millis(2));
        service.close();
        submitter.join().unwrap()
    });
    // Every attempt resolved exactly one way; nothing vanished.
    assert_eq!(accepted + shed + closed, attempts);
    assert!(closed <= 1, "the submitter stops at the first Closed");
    // Drain after close must not hang; shutdown's counters agree with
    // the submitter's tally.
    service.drain();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.shed, shed, "every shed was reported to the submitter");
    assert_eq!(stats.failed, 0);
}
