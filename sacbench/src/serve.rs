//! The `serve` workload: read-only serving on a static `Database`.
//!
//! One client sends query text through `Database::query` in a closed loop.
//! Every round sends the same mix of request classes (constant lookups,
//! witness-rung shapes, indexed-search shapes, large outputs and ad-hoc
//! cyclic requests whose constants never repeat), then evaluates four
//! Datalog programs with certificates, then makes one fault probe.

use crate::pace::Pace;
use crate::report::{peak_rss_mb, Report};
use crate::rng::Rng;
use crate::stats::{geomean, mean, median, percentile};
use crate::Args;
use sac::datalog::{check, naive, Certificate, DerivationStep, Premise};
use sac::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUPS: usize = 9;

/// Pool parallelism of the serving database.
const PARALLELISM: usize = 2;

/// Sizes of the generated data.
const CUSTOMERS: usize = 600;
const RECORDS: usize = 600;
const STYLES: usize = 12;
const NODES: usize = 3000;
const EDGES: usize = 9000;
const FACTS: usize = 10_000;
const DIM1: usize = 200;
const DIM2: usize = 100;

/// Requests per round, by class.  The shares are assumptions (the
/// repository has no record of real traffic): lookups are most requests,
/// the witness rung gets about a quarter of the request time, and no class
/// gets half.  The README gives the reasons and the measured shares.
const LOOKUPS: usize = 128;
const LOOKUP_POOL: usize = 32;
const WITNESS: usize = 24;
const SEARCH: usize = 1;
const LARGE: usize = LARGE_SHAPES.len();
const ADHOC: usize = 8;
const REQUESTS_PER_ROUND: usize = LOOKUPS + WITNESS + SEARCH + LARGE + ADHOC;

/// The request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Lookup,
    Witness,
    Search,
    Large,
    AdHoc,
}

const WITNESS_SHAPES: [&str; 2] = [
    "q(X) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).",
    "q(W) :- E(X, Y), E(Y, Z), E(Z, X), E(W, W).",
];
const SEARCH_SHAPE: &str = "q(X) :- E(X, Y), E(Y, Z), E(Z, X).";
const LARGE_SHAPES: [&str; 2] = [
    "q(X, Z) :- E(X, Y), E(Y, Z).",
    "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).",
];

/// The Datalog programs of the recursive phase, each over its own base.
const PROGRAMS: [(&str, &str); 4] = [
    (
        "reachability",
        "T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).",
    ),
    (
        "same-generation",
        "Sg(X, Y) :- Parent(P, X), Parent(P, Y).\nSg(X, Y) :- Parent(P, X), Parent(Q, Y), Sg(P, Q).",
    ),
    (
        "ontology",
        "SubT(C, D) :- Sub(C, D).\nSubT(C, E) :- Sub(C, D), SubT(D, E).\nType(X, C) :- Is(X, C).\nType(X, D) :- Type(X, C), SubT(C, D).",
    ),
    (
        "stratified",
        "T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).\nSep(X, Y) :- N(X), N(Y), not T(X, Y).",
    ),
];

/// Everything the serving phase reads, generated from the seed.  The
/// generated instance itself is not kept: set-up loads its text.
struct Inputs {
    /// Whether the generated instance satisfies the collector tgd.
    closed: bool,
    /// The instance as fact text: set-up loads it through the parser.
    facts: String,
    lookups: Vec<String>,
    datalog_bases: Vec<Instance>,
    seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut instance = sac::gen::music_database(CUSTOMERS, RECORDS, STYLES);
    instance
        .extend_from(&sac::gen::random_graph_database(NODES, EDGES, seed))
        .expect("disjoint schemas");
    instance
        .extend_from(&sac::gen::star_schema_database(
            FACTS,
            DIM1,
            DIM2,
            seed ^ 0x5eed,
        ))
        .expect("disjoint schemas");

    let mut rng = Rng::new(seed);
    let lookups = (0..LOOKUP_POOL)
        .map(|i| match i % 4 {
            0 => format!("q(Y) :- Owns(cust{}, Y).", rng.below(CUSTOMERS)),
            1 => format!("q(Y) :- E(n{}, Y).", rng.below(NODES)),
            2 => format!("q(F, B) :- Fact(F, d1_{}, B).", rng.below(DIM1)),
            _ => format!(
                "q(F, A) :- Fact(F, A, d2_{}), Dim1(A, attr3).",
                rng.below(DIM2)
            ),
        })
        .collect();

    let closed = satisfies_collector(&instance);
    let facts = facts_text(&instance);
    // The Datalog bases have fixed shapes, so every seed costs the same
    // work; the seed names the nodes and orders the facts.
    let datalog_bases = vec![
        binary_facts("E", tree("r", 3, 5, &mut rng)),
        sac::gen::datalog::parent_tree_database(6, 2),
        ontology(&mut rng),
        tree_with_domain(&mut rng),
    ];
    Inputs {
        closed,
        facts,
        lookups,
        datalog_bases,
        seed,
    }
}

/// A complete `fanout`-ary tree of the given depth as (parent, child)
/// pairs, its nodes named by a seeded permutation, in seeded order.
fn tree(prefix: &str, fanout: usize, depth: usize, rng: &mut Rng) -> Vec<(Term, Term)> {
    let nodes: usize = (0..=depth as u32).map(|d| fanout.pow(d)).sum();
    let mut names: Vec<usize> = (0..nodes).collect();
    rng.shuffle(&mut names);
    let mut edges: Vec<(usize, usize)> = (1..nodes)
        .map(|child| ((child - 1) / fanout, child))
        .collect();
    rng.shuffle(&mut edges);
    let name = |i: usize| Term::constant(&format!("{prefix}{}", names[i]));
    edges.into_iter().map(|(p, c)| (name(p), name(c))).collect()
}

fn binary_facts(pred: &str, pairs: impl IntoIterator<Item = (Term, Term)>) -> Instance {
    Instance::from_atoms(
        pairs
            .into_iter()
            .map(|(a, b)| Atom::from_parts(pred, vec![a, b])),
    )
    .expect("consistent arities")
}

/// A tree graph `E(parent, child)` plus its node domain `N`, so negated
/// rules stay safe.
fn tree_with_domain(rng: &mut Rng) -> Instance {
    let mut graph = binary_facts("E", tree("s", 2, 4, rng));
    for node in graph.active_domain() {
        graph
            .insert(Atom::from_parts("N", vec![node]))
            .expect("consistent arities");
    }
    graph
}

/// An ontology: a ternary class tree of depth 3 under `Sub(child, parent)`
/// and 300 individuals, each in one seeded leaf class (`Is`).
fn ontology(rng: &mut Rng) -> Instance {
    let edges = tree("c", 3, 3, rng);
    let parents: BTreeSet<Term> = edges.iter().map(|(p, _)| *p).collect();
    let leaves: Vec<Term> = edges
        .iter()
        .map(|(_, c)| *c)
        .filter(|c| !parents.contains(c))
        .collect();
    let mut instance = binary_facts("Sub", edges.into_iter().map(|(p, c)| (c, p)));
    for i in 0..300 {
        let class = leaves[rng.below(leaves.len())];
        instance
            .insert(Atom::from_parts(
                "Is",
                vec![Term::constant(&format!("i{i}")), class],
            ))
            .expect("consistent arities");
    }
    instance
}

fn facts_text(instance: &Instance) -> String {
    instance
        .atoms()
        .map(|atom| format!("{atom}."))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The ad-hoc request number `k`: a cyclic shape that is semantically
/// acyclic under the collector tgd, with a (customer, record) constant pair
/// that does not repeat for `CUSTOMERS * RECORDS` requests.
fn adhoc(k: usize, seed: u64) -> String {
    let k = k + (seed as usize % 7919);
    let customer = k % CUSTOMERS;
    let record = (k / CUSTOMERS + k * 7) % RECORDS;
    format!(
        "q(Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y), Owns(cust{customer}, Y), Owns(X, rec{record})."
    )
}

/// One round's requests, in a fixed interleaving.
fn round(inputs: &Inputs, rng: &mut Rng, adhoc_counter: &mut usize) -> Vec<(Class, String)> {
    let mut requests = Vec::new();
    for _ in 0..LOOKUPS {
        requests.push((
            Class::Lookup,
            inputs.lookups[rng.below(LOOKUP_POOL)].clone(),
        ));
    }
    for i in 0..WITNESS {
        requests.push((Class::Witness, WITNESS_SHAPES[i % 2].to_owned()));
    }
    for _ in 0..SEARCH {
        requests.push((Class::Search, SEARCH_SHAPE.to_owned()));
    }
    for shape in LARGE_SHAPES {
        requests.push((Class::Large, shape.to_owned()));
    }
    for _ in 0..ADHOC {
        requests.push((Class::AdHoc, adhoc(*adhoc_counter, inputs.seed)));
        *adhoc_counter += 1;
    }
    rng.shuffle(&mut requests);
    requests
}

/// The serving database and the Datalog databases, as set-up builds them.
struct Served {
    db: Database,
    datalog: Vec<(Database, DatalogProgram)>,
}

fn set_up(inputs: &Inputs, bases: Vec<Instance>) -> Served {
    let db = Database::from_facts(&inputs.facts)
        .expect("generated facts parse")
        .with_parallelism(PARALLELISM);
    db.set_tgds(vec![sac::gen::collector_tgd()]);
    // Warm the plans of every repeated shape.
    for text in inputs
        .lookups
        .iter()
        .map(String::as_str)
        .chain(WITNESS_SHAPES)
        .chain([SEARCH_SHAPE])
        .chain(LARGE_SHAPES)
    {
        db.prepare(text).expect("benchmark requests parse");
    }
    let datalog = bases
        .into_iter()
        .zip(PROGRAMS)
        .map(|(base, (_, text))| {
            let program: DatalogProgram = text.parse().expect("programs parse");
            (
                Database::from_instance(base).with_parallelism(PARALLELISM),
                program,
            )
        })
        .collect();
    Served { db, datalog }
}

/// The benchmark's own check that the instance satisfies the collector
/// tgd: every `Interest(x, z), Class(y, z)` pair has its `Owns(x, y)`.
fn satisfies_collector(instance: &Instance) -> bool {
    let rows = |p: &str| -> Vec<Vec<Term>> {
        instance
            .relation(sac::common::intern(p))
            .map(|r| r.iter().collect())
            .unwrap_or_default()
    };
    let owns: BTreeSet<(Term, Term)> = rows("Owns").into_iter().map(|r| (r[0], r[1])).collect();
    let mut by_style: BTreeMap<Term, Vec<Term>> = BTreeMap::new();
    for r in rows("Class") {
        by_style.entry(r[1]).or_default().push(r[0]);
    }
    rows("Interest").into_iter().all(|i| {
        by_style
            .get(&i[1])
            .is_none_or(|records| records.iter().all(|y| owns.contains(&(i[0], *y))))
    })
}

/// The certificate-checker fault probe (one operation): a certificate that
/// omits the derivation a negated literal depends on must be refused.
/// Returns `true` when the checker refuses it.
fn omission_probe() -> bool {
    let program: DatalogProgram = "T(X, Y) :- E(X, Y).\nSep(X, Y) :- N(X), N(Y), not T(X, Y)."
        .parse()
        .expect("probe program parses");
    let c = Term::constant;
    let base = Instance::from_atoms([
        Atom::from_parts("E", vec![c("a"), c("b")]),
        Atom::from_parts("N", vec![c("a")]),
        Atom::from_parts("N", vec![c("b")]),
    ])
    .expect("probe base is well-formed");
    let forged = Atom::from_parts("Sep", vec![c("a"), c("b")]);
    let n = sac::common::intern("N");
    let certificate = Certificate {
        steps: vec![DerivationStep {
            rule: 1,
            fact: forged.clone(),
            premises: vec![
                Premise::Base {
                    predicate: n,
                    row: 0,
                },
                Premise::Base {
                    predicate: n,
                    row: 1,
                },
            ],
            negated: vec![Atom::from_parts("T", vec![c("a"), c("b")])],
        }],
    };
    check::check_certificate(&program, &base, &certificate).is_err()
        || check::verify_answer(&program, &base, &certificate, &forged).is_err()
}

/// A digest of an answer set in its sorted order: its size and a hash of
/// its rows, so the run keeps no answer rows of its own.
fn digest<'a>(tuples: impl Iterator<Item = &'a [Term]>) -> (usize, u64) {
    let mut hasher = DefaultHasher::new();
    let mut rows = 0;
    for tuple in tuples {
        tuple.hash(&mut hasher);
        rows += 1;
    }
    (rows, hasher.finish())
}

/// What one Datalog program produced, for the after-run checks.
struct DatalogOutcome {
    fixpoint: BTreeSet<Atom>,
    certificate: Certificate,
}

/// Hands the memory freed by a dropped database back to the system, so
/// that each rebuild faults in fresh pages, as the first set-up does,
/// instead of reusing whatever the allocator kept.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The untraced run.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = inputs(args.seed);
    if !inputs.closed {
        report.wrong("the serving instance violates the collector tgd");
    }
    eprintln!(
        "serve: peak RSS after input generation {:.1} MiB",
        peak_rss_mb()
    );

    let mut pace = Pace::new();
    let bases = inputs.datalog_bases.clone();
    let (mut served, secs) = pace.time(|| set_up(&inputs, bases));
    let mut setups = vec![secs];

    let mut rng = Rng::new(args.seed ^ 0x5e7e);
    let mut adhoc_counter = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut first_answer: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    let mut mismatched: BTreeSet<String> = BTreeSet::new();
    let mut fixpoint_ms: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let mut outcomes: Vec<Option<DatalogOutcome>> = (0..PROGRAMS.len()).map(|_| None).collect();

    let budget = Duration::from_secs_f64(args.seconds);
    let loop_started = Instant::now();
    let mut round_secs: Vec<f64> = Vec::new();
    // The high-water mark is read before the first rebuild: a rebuilt
    // database lands in a heap that the earlier rounds left fragmented, by
    // an amount that changes from run to run.
    let mut peak_rss = None;
    while loop_started.elapsed() < budget {
        // The serving database is rebuilt at even steps through the run, so
        // the set-up median does not rest on one moment of a shared machine.
        // The old one is dropped first: one serving database is alive.
        let due = budget.mul_f64(setups.len() as f64 / SETUPS as f64);
        if setups.len() < SETUPS && loop_started.elapsed() >= due {
            peak_rss.get_or_insert_with(peak_rss_mb);
            drop(served);
            release_freed_memory();
            let bases = inputs.datalog_bases.clone();
            let secs;
            (served, secs) = pace.time(|| set_up(&inputs, bases));
            setups.push(secs);
        }
        let db = &served.db;
        let mut this_round = 0.0;
        for (class, text) in round(&inputs, &mut rng, &mut adhoc_counter) {
            let (answer, secs) = pace.time(|| db.query(text.as_str()));
            let us = secs * 1e6;
            report.attempted += 1;
            let Ok(answer) = answer else {
                report.wrong(format!("request {text} failed"));
                continue;
            };
            latencies.push(us);
            this_round += us / 1e6;
            by_class.entry(class).or_default().push(us);
            let answer = digest(answer.tuples());
            match first_answer.get(&text) {
                Some(first) => {
                    if *first != answer {
                        mismatched.insert(text);
                    }
                }
                None => {
                    first_answer.insert(text, answer);
                }
            }
        }
        round_secs.push(this_round);
        for (i, (datalog_db, program)) in served.datalog.iter().enumerate() {
            let (run, secs) = pace.time(|| datalog_db.run_datalog(program));
            fixpoint_ms[i].push(secs * 1e3);
            report.attempted += 1;
            let Ok(run) = run else {
                report.wrong(format!("{} failed", PROGRAMS[i].0));
                continue;
            };
            let certificate = run.certificate.expect("certificates are on by default");
            match &outcomes[i] {
                Some(first) => {
                    if first.certificate != certificate
                        || first.fixpoint.len() != run.fixpoint.len()
                    {
                        report.wrong(format!("{} changed between rounds", PROGRAMS[i].0));
                    }
                }
                None => {
                    outcomes[i] = Some(DatalogOutcome {
                        fixpoint: run.fixpoint.atoms().collect(),
                        certificate,
                    });
                }
            }
        }
        report.attempted += 1;
        if !omission_probe() {
            report.failed += 1;
        }
    }

    // Without a rebuild, the mark is read before the checks below, which
    // hold reference answers of their own.
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
    let db = &served.db;

    // Checks against independent computations.
    for text in &mismatched {
        report.wrong(format!("{text} answered differently across rounds"));
    }
    let instance = db.snapshot();
    for (text, answer) in &first_answer {
        let query: ConjunctiveQuery = text.parse().expect("benchmark requests parse");
        let expected = evaluate(&query, &instance);
        if digest(expected.iter().map(Vec::as_slice)) != *answer {
            report.wrong(format!("{text} differs from naive evaluation"));
        }
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (datalog_db, program) = &served.datalog[i];
        let base = datalog_db.snapshot();
        match naive::naive_fixpoint(program, &base) {
            Ok((reference, _)) => {
                if reference.atoms().collect::<BTreeSet<_>>() != outcome.fixpoint {
                    report.wrong(format!("{} differs from the naive fixpoint", PROGRAMS[i].0));
                }
            }
            Err(e) => report.wrong(format!("naive {} failed: {e}", PROGRAMS[i].0)),
        }
        if let Err(e) = check::check_certificate(program, &base, &outcome.certificate) {
            report.wrong(format!(
                "{} certificate does not replay: {e}",
                PROGRAMS[i].0
            ));
        }
    }

    eprintln!("serve: {}", pace.summary());
    eprintln!(
        "serve: set-up median {:.4} s over {SETUPS}, {:.4}..{:.4}",
        median(&setups),
        percentile(&setups, 1.0),
        percentile(&setups, 100.0)
    );
    let total_us: f64 = latencies.iter().sum();
    for (class, times) in &by_class {
        eprintln!(
            "serve: {class:?}: n={} p50={:.1} us p99={:.1} us, {:.1}% of request time",
            times.len(),
            median(times),
            percentile(times, 99.0),
            100.0 * times.iter().sum::<f64>() / total_us
        );
    }
    for (i, times) in fixpoint_ms.iter().enumerate() {
        eprintln!(
            "serve: datalog {}: median {:.2} ms over {}",
            PROGRAMS[i].0,
            median(times),
            times.len()
        );
    }
    eprintln!(
        "serve: {} requests at parallelism {PARALLELISM} on {} available cores",
        latencies.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!(
        "serve: {} atoms, {} distinct terms, {} cached plans, heap {} bytes",
        instance.len(),
        instance.active_domain().len(),
        db.cached_plans(),
        db.heap_bytes()
    );

    report.metric("setup_s", median(&setups));
    report.metric("peak_rss_mb", peak_rss);
    report.metric("ops_per_s", REQUESTS_PER_ROUND as f64 / median(&round_secs));
    report.metric("primary_us", median(&latencies));
    report.metric("secondary_us", percentile(&latencies, 99.0));
    report.metric(
        "job_ms",
        geomean(&fixpoint_ms.iter().map(|t| median(t)).collect::<Vec<_>>()),
    );
    report
}

/// The traced run.
pub fn trace(args: &Args, budget: Duration) -> Report {
    let mut report = Report::default();
    let inputs = inputs(args.seed);
    let served = set_up(&inputs, inputs.datalog_bases.clone());
    let db = &served.db;
    db.reset_metrics();
    let mut rng = Rng::new(args.seed ^ 0x5e7e);
    let mut adhoc_counter = 0usize;

    let mut requests = 0usize;
    let mut parse_us = Vec::new();
    let mut plan_us = Vec::new();
    let mut phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rows_out = Vec::new();
    let mut request_us = Vec::new();
    let mut traced_us = Vec::new();
    let (mut nocert_ms, mut cert_ms, mut check_ms, mut naive_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut derived, mut iterations) = (Vec::new(), Vec::new());

    let started_all = Instant::now();
    let requests_budget = budget.mul_f64(0.7);
    while started_all.elapsed() < requests_budget {
        for (_, text) in round(&inputs, &mut rng, &mut adhoc_counter) {
            // The request traced from text, then the same request untraced.
            let t = Instant::now();
            let query: ConjunctiveQuery = text.parse().expect("benchmark requests parse");
            let parsed = t.elapsed().as_secs_f64() * 1e6;
            let (result, trace) = db.run_traced(&query);
            let traced = t.elapsed().as_secs_f64() * 1e6;
            parse_us.push(parsed);

            let t = Instant::now();
            let plain = db.query(text.as_str()).expect("benchmark requests parse");
            let untraced = t.elapsed().as_secs_f64() * 1e6;
            report.attempted += 2;
            requests += 1;
            if result.len() != plain.len() {
                report.wrong(format!("{text}: traced and untraced answers differ"));
            }
            // Tracing overhead compares like with like: requests whose
            // traced run was a plan-cache hit too.
            if trace.plan_cache_hit {
                traced_us.push(traced);
                request_us.push(untraced);
            }
            rows_out.push(result.len() as f64);
            if !trace.plan_cache_hit {
                plan_us.push(trace.phases.get(Phase::Plan) as f64 / 1e3);
            }
            for phase in Phase::ALL.into_iter().filter(|p| *p != Phase::Plan) {
                phases
                    .entry(phase.as_str())
                    .or_default()
                    .push(trace.phases.get(phase) as f64 / 1e3);
            }
        }
    }
    let metrics = db.metrics();

    while started_all.elapsed() < budget || naive_ms.is_empty() {
        for (datalog_db, program) in &served.datalog {
            let off = DatalogOptions {
                certificate: false,
                ..DatalogOptions::default()
            };
            let t = Instant::now();
            let plain = datalog_db
                .run_datalog_with(program, off)
                .expect("program runs");
            let plain_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let run = datalog_db.run_datalog(program).expect("program runs");
            let with_ms = t.elapsed().as_secs_f64() * 1e3;
            nocert_ms.push(plain_ms);
            cert_ms.push((with_ms - plain_ms).max(0.0));
            derived.push(plain.derived.len() as f64);
            iterations.push(plain.stats.iterations as f64);
            let base = datalog_db.snapshot();
            let certificate = run.certificate.expect("certificates are on by default");
            let t = Instant::now();
            let replay = check::check_certificate(program, &base, &certificate);
            check_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if replay.is_err() {
                report.wrong("a certificate failed to replay in the traced run");
            }
            let t = Instant::now();
            std::hint::black_box(naive::naive_fixpoint(program, &base).ok());
            naive_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.attempted += 2;
        }
    }

    let phase = |name: &str| mean(phases.get(name).map(Vec::as_slice).unwrap_or(&[]));
    report.metric("serve.parse_us", mean(&parse_us));
    report.metric("serve.plan_us", mean(&plan_us));
    for name in [
        "snapshot",
        "match_sets",
        "semijoin_up",
        "semijoin_down",
        "join_back",
        "search",
        "decode",
    ] {
        report.metric(&format!("serve.{name}_us"), phase(name));
    }
    report.metric("serve.rows_out", mean(&rows_out));
    // Plan-cache readings per round of requests.
    let rounds = (requests / REQUESTS_PER_ROUND).max(1) as f64;
    report.metric("serve.plans_built", metrics.plans_built as f64 / rounds);
    report.metric(
        "serve.plan_cache_hits",
        metrics.plan_cache_hits as f64 / rounds,
    );
    // Pool readings per request (each request ran twice: traced, untraced).
    let runs = (2 * requests).max(1) as f64;
    report.metric(
        "serve.morsels_dispatched",
        metrics.morsels_dispatched as f64 / runs,
    );
    report.metric("serve.morsel_steals", metrics.morsel_steals as f64 / runs);
    report.metric(
        "serve.pool_wait_us",
        metrics.pool_queue_wait_ns as f64 / 1e3 / runs,
    );
    report.metric("serve.request_us", mean(&request_us));
    report.metric("serve.traced_request_us", mean(&traced_us));
    report.metric("serve.fixpoint_nocert_ms", mean(&nocert_ms));
    report.metric("serve.certificate_ms", mean(&cert_ms));
    report.metric("serve.check_ms", mean(&check_ms));
    report.metric("serve.naive_fixpoint_ms", mean(&naive_ms));
    report.metric("serve.derived_facts", mean(&derived));
    report.metric("serve.datalog_iterations", mean(&iterations));
    report
}
