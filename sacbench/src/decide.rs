//! The `decide` workload: the paper's decision problem, with no `Database`.
//!
//! A fixed suite of (CQ, Σ) texts is parsed with `parse_program` and
//! decided by `semantic_acyclicity_under_tgds` / `_under_egds`.  Every
//! verdict is known by construction (see README.md); the seed renames the
//! variables, shuffles the order of the suite in every round and draws the
//! Σ-closed databases the witnesses are checked on.

use crate::pace::Pace;
use crate::report::{peak_rss_mb, Report};
use crate::rng::Rng;
use crate::stats::{geomean, mean, median};
use crate::{gyo, Args};
use sac::prelude::*;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// How the benchmark closes a random database under an instance's Σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closure {
    /// No constraints.
    Free,
    /// `E(X, Y) -> E(Y, X)`.
    Symmetric,
    /// `Interest(X, Z), Class(Y, Z) -> Owns(X, Y)`.
    Collector,
    /// The key `R: {1} -> {2}`.
    KeyR,
    /// A Σ whose instances are all "no": no witness is ever checked.
    NoWitness,
}

const SYMMETRIC: &str = "E(X, Y) -> E(Y, X).";
const COLLECTOR: &str = "Interest(X, Z), Class(Y, Z) -> Owns(X, Y).";
const FIGURE1_STICKY: &str = "T(X, Y, Z) -> S(Y, W).\nR(X, Y), P(Y, Z) -> T(X, Y, W).";
const EDGE_NODE: &str = "Edge(X, Y) -> Node(X).";
const KEY_R: &str = "R(X, Y), R(X, Z) -> Y = Z.";

/// One suite entry: program text (query plus Σ), the known verdict and the
/// closure the witness is checked under.
#[derive(Debug, Clone)]
struct Case {
    label: String,
    text: String,
    yes: bool,
    closure: Closure,
}

fn cycle(n: usize, v: &str) -> String {
    let atoms: Vec<String> = (0..n)
        .map(|i| format!("E({v}{i}, {v}{})", (i + 1) % n))
        .collect();
    format!("q() :- {}.", atoms.join(", "))
}

fn path(n: usize, v: &str) -> String {
    let atoms: Vec<String> = (0..n).map(|i| format!("E({v}{i}, {v}{})", i + 1)).collect();
    format!("q({v}0) :- {}.", atoms.join(", "))
}

fn star(n: usize, v: &str) -> String {
    let atoms: Vec<String> = (0..n).map(|i| format!("E({v}C, {v}L{i})")).collect();
    format!("q({v}C) :- {}.", atoms.join(", "))
}

fn key_ring(n: usize, v: &str) -> String {
    let mut atoms = vec![format!("R({v}X, {v}Y0)")];
    for i in 0..n {
        atoms.push(format!("S({v}X, {v}Y{i}, {v}Y{})", i + 1));
    }
    atoms.push(format!("R({v}X, {v}Y{n})"));
    format!("q({v}X) :- {}.", atoms.join(", "))
}

/// The suite.  `v` prefixes every variable (drawn from the seed).
fn suite(v: &str) -> Vec<Case> {
    let case = |label: &str, query: String, sigma: &str, yes: bool, closure: Closure| Case {
        label: label.to_owned(),
        text: format!("{query}\n{sigma}"),
        yes,
        closure,
    };
    let example1 =
        format!("q({v}X, {v}Y) :- Interest({v}X, {v}Z), Class({v}Y, {v}Z), Owns({v}X, {v}Y).");
    vec![
        // Directed cycles are their own cores.
        case("C3", cycle(3, v), "", false, Closure::Free),
        case("C4", cycle(4, v), "", false, Closure::Free),
        case("C5", cycle(5, v), "", false, Closure::Free),
        // ... and Figure 1's sticky set does not speak about E.
        case(
            "C3-sticky",
            cycle(3, v),
            FIGURE1_STICKY,
            false,
            Closure::NoWitness,
        ),
        case(
            "C4-sticky",
            cycle(4, v),
            FIGURE1_STICKY,
            false,
            Closure::NoWitness,
        ),
        // Under symmetry, even cycles fold onto one symmetric edge.
        case("C3-sym", cycle(3, v), SYMMETRIC, false, Closure::Symmetric),
        case("C4-sym", cycle(4, v), SYMMETRIC, true, Closure::Symmetric),
        case("C5-sym", cycle(5, v), SYMMETRIC, false, Closure::Symmetric),
        case("C6-sym", cycle(6, v), SYMMETRIC, true, Closure::Symmetric),
        // Example 1, with and without the collector tgd.
        case(
            "ex1-collector",
            example1.clone(),
            COLLECTOR,
            true,
            Closure::Collector,
        ),
        case("ex1-free", example1, "", false, Closure::Free),
        case(
            "triangle-edge-node",
            format!("q() :- Edge({v}X, {v}Y), Edge({v}Y, {v}Z), Edge({v}Z, {v}X)."),
            EDGE_NODE,
            false,
            Closure::NoWitness,
        ),
        case(
            "looped-triangle",
            format!("q({v}W) :- E({v}X, {v}Y), E({v}Y, {v}Z), E({v}Z, {v}X), E({v}W, {v}W)."),
            "",
            true,
            Closure::Free,
        ),
        case(
            "binary-key-diamond",
            format!("q({v}X) :- R({v}X, {v}Y), R({v}X, {v}Z), T({v}Y, {v}Z), T({v}Z, {v}Y)."),
            KEY_R,
            true,
            Closure::KeyR,
        ),
        // Acyclic inputs are their own witnesses.
        case("path6", path(6, v), "", true, Closure::Free),
        case("star6", star(6, v), SYMMETRIC, true, Closure::Symmetric),
        case("key-ring5", key_ring(5, v), KEY_R, true, Closure::KeyR),
        case("example4-key", key_ring(3, v), KEY_R, true, Closure::KeyR),
    ]
}

/// A parsed suite entry.
struct Parsed {
    query: ConjunctiveQuery,
    tgds: Vec<Tgd>,
    egds: Vec<Egd>,
}

fn parse(case: &Case) -> Parsed {
    let program = parse_program(&case.text).expect("suite texts parse");
    assert_eq!(program.queries.len(), 1, "{}: one query", case.label);
    Parsed {
        query: program.queries.into_iter().next().unwrap(),
        tgds: program.tgds,
        egds: program.egds,
    }
}

fn decide(parsed: &Parsed) -> SemAcResult {
    if parsed.egds.is_empty() {
        semantic_acyclicity_under_tgds(&parsed.query, &parsed.tgds, SemAcConfig::default())
    } else {
        semantic_acyclicity_under_egds(&parsed.query, &parsed.egds, SemAcConfig::default())
    }
}

fn variable_prefix(seed: u64) -> String {
    // Upper-case initial keeps every name a variable in the syntax.
    format!("V{}x", seed % 1000)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// The untraced run.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let prefix = variable_prefix(args.seed);
    let cases = suite(&prefix);

    // Set-up: parse the suite and decide every instance once (the warm
    // pass).  It is made eleven times, at even steps through the run, and
    // the median is `setup_s`.
    let set_up = || {
        let parsed = cases.iter().map(parse).collect::<Vec<_>>();
        for p in &parsed {
            std::hint::black_box(decide(p));
        }
        parsed
    };
    let mut pace = Pace::new();
    let (mut parsed, secs) = pace.time(set_up);
    let mut setups = vec![secs];

    // Measure: whole rounds over the suite, in a seeded order per round.
    let mut rng = Rng::new(args.seed);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut witnesses: Vec<Option<ConjunctiveQuery>> = vec![None; cases.len()];
    let budget = Duration::from_secs_f64(args.seconds);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let loop_started = Instant::now();
    let mut round_us = Vec::new();
    while loop_started.elapsed() < budget {
        let due = budget.mul_f64(setups.len() as f64 / SETUPS as f64);
        if setups.len() < SETUPS && loop_started.elapsed() >= due {
            let secs;
            (parsed, secs) = pace.time(set_up);
            setups.push(secs);
        }
        rng.shuffle(&mut order);
        let mut this_round = 0.0;
        for &i in &order {
            let (result, secs) = pace.time(|| decide(&parsed[i]));
            let us = secs * 1e6;
            times[i].push(us);
            this_round += us;
            report.attempted += 1;
            if result.is_acyclic() != cases[i].yes {
                report.wrong(format!(
                    "{}: verdict {} but the known answer is {}",
                    cases[i].label,
                    result.is_acyclic(),
                    cases[i].yes
                ));
            }
            if witnesses[i].is_none() {
                witnesses[i] = result.witness().cloned();
            }
        }
        round_us.push(this_round);
    }

    for (i, case) in cases.iter().enumerate() {
        if let Some(witness) = &witnesses[i] {
            check_witness(case, &parsed[i].query, witness, args.seed, &mut report);
        }
    }

    eprintln!("decide: {}", pace.summary());
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    for (case, m) in cases.iter().zip(&medians) {
        eprintln!(
            "decide: {:<20} {:<3} median {m:>12.1} us",
            case.label,
            if case.yes { "yes" } else { "no" }
        );
    }
    let pick = |yes: bool| -> Vec<f64> {
        cases
            .iter()
            .zip(&medians)
            .filter(|(c, _)| c.yes == yes)
            .map(|(_, m)| *m)
            .collect()
    };
    report.metric("setup_s", median(&setups));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("ops_per_s", cases.len() as f64 / (median(&round_us) / 1e6));
    report.metric("primary_us", geomean(&pick(true)));
    report.metric("secondary_us", geomean(&pick(false)));
    report.metric("job_ms", medians.iter().sum::<f64>() / 1e3);
    report
}

/// Checks a witness independently of the decider: GYO-acyclic, and equal
/// in answers to the input query on seeded databases closed under Σ.
fn check_witness(
    case: &Case,
    query: &ConjunctiveQuery,
    witness: &ConjunctiveQuery,
    seed: u64,
    report: &mut Report,
) {
    if !gyo::is_acyclic(witness) {
        report.wrong(format!("{}: witness {witness} is not acyclic", case.label));
    }
    if witness.head.len() != query.head.len() {
        report.wrong(format!(
            "{}: witness {witness} changes the head",
            case.label
        ));
        return;
    }
    for (k, (domain, facts)) in [(4usize, 10usize), (6, 24)].into_iter().enumerate() {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(k as u64));
        let db = closed_database(query, case.closure, domain, facts, &mut rng);
        let expected = evaluate(query, &db);
        let got = evaluate(witness, &db);
        if expected != got {
            report.wrong(format!(
                "{}: witness {witness} answers {} tuples, the query {} on a Σ-closed database",
                case.label,
                got.len(),
                expected.len()
            ));
        }
    }
}

/// A random database over the query's predicates, closed under `closure`
/// by the benchmark's own code.
fn closed_database(
    query: &ConjunctiveQuery,
    closure: Closure,
    domain: usize,
    facts: usize,
    rng: &mut Rng,
) -> Instance {
    let mut schema: Vec<(String, usize)> = query
        .body
        .iter()
        .map(|a| (a.predicate.as_str(), a.args.len()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if closure == Closure::Collector {
        schema.retain(|(p, _)| p != "Owns");
    }
    let constant = |i: usize| Term::constant(&format!("k{i}"));
    let mut out = Vec::new();
    for (predicate, arity) in &schema {
        for _ in 0..facts {
            let args: Vec<usize> = (0..*arity).map(|_| rng.below(domain)).collect();
            if closure == Closure::KeyR
                && predicate == "R"
                && out
                    .iter()
                    .any(|(p, a): &(String, Vec<usize>)| p == "R" && a[0] == args[0])
            {
                continue;
            }
            out.push((predicate.clone(), args));
        }
    }
    match closure {
        Closure::Symmetric => {
            let reversed: Vec<_> = out
                .iter()
                .filter(|(p, _)| p == "E")
                .map(|(p, a)| (p.clone(), vec![a[1], a[0]]))
                .collect();
            out.extend(reversed);
        }
        Closure::Collector => {
            let interest: Vec<_> = out
                .iter()
                .filter(|(p, _)| p == "Interest")
                .cloned()
                .collect();
            let class: Vec<_> = out.iter().filter(|(p, _)| p == "Class").cloned().collect();
            for (_, i) in &interest {
                for (_, c) in &class {
                    if i[1] == c[1] {
                        out.push(("Owns".to_owned(), vec![i[0], c[0]]));
                    }
                }
            }
            // Owns facts beyond the closure, so Owns is not exactly implied.
            for _ in 0..facts / 2 {
                out.push((
                    "Owns".to_owned(),
                    vec![rng.below(domain), rng.below(domain)],
                ));
            }
        }
        Closure::Free | Closure::KeyR | Closure::NoWitness => {}
    }
    Instance::from_atoms(out.into_iter().map(|(predicate, args)| {
        Atom::from_parts(&predicate, args.into_iter().map(constant).collect())
    }))
    .expect("consistent arities")
}

/// The traced run: each layer the decider uses, timed from outside
/// through its public function, per suite instance.
pub fn trace(args: &Args, budget: Duration) -> Report {
    let mut report = Report::default();
    let cases = suite(&variable_prefix(args.seed));
    let budget_cfg = SemAcConfig::default().chase_budget;
    let (mut parse_us, mut core_us, mut chase_us, mut chase_atoms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut contain_us, mut acyclic_us, mut witness_atoms, mut decide_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |started: Instant| started.elapsed().as_secs_f64() * 1e6;
    let started_all = Instant::now();
    while started_all.elapsed() < budget {
        for case in &cases {
            let t = Instant::now();
            let p = parse(case);
            parse_us.push(us(t));

            let t = Instant::now();
            let core = core_of(&p.query);
            core_us.push(us(t));

            if !p.tgds.is_empty() {
                let t = Instant::now();
                let (chase, _) = tgd_chase_query(&p.query, &p.tgds, budget_cfg);
                chase_us.push(us(t));
                chase_atoms.push(chase.instance.len() as f64);
            } else if !p.egds.is_empty() {
                let t = Instant::now();
                if let Ok((chase, _)) = egd_chase_query(&p.query, &p.egds) {
                    chase_atoms.push(chase.instance.len() as f64);
                }
                chase_us.push(us(t));
            }

            let t = Instant::now();
            let result = decide(&p);
            decide_us.push(us(t));
            report.attempted += 1;
            if result.is_acyclic() != case.yes {
                report.wrong(format!("{}: wrong verdict in the traced run", case.label));
            }

            let target = result.witness().cloned().unwrap_or(core);
            let t = Instant::now();
            std::hint::black_box(is_acyclic_query(&target));
            acyclic_us.push(us(t));

            if let Some(witness) = result.witness() {
                witness_atoms.push(witness.size() as f64);
                if !p.tgds.is_empty() {
                    let t = Instant::now();
                    let both = contained_under_tgds(&p.query, witness, &p.tgds, budget_cfg).holds()
                        && contained_under_tgds(witness, &p.query, &p.tgds, budget_cfg).holds();
                    contain_us.push(us(t));
                    if !both {
                        report.wrong(format!("{}: witness not Σ-equivalent", case.label));
                    }
                } else if !p.egds.is_empty() {
                    let t = Instant::now();
                    let both = contained_under_egds(&p.query, witness, &p.egds)
                        && contained_under_egds(witness, &p.query, &p.egds);
                    contain_us.push(us(t));
                    if !both {
                        report.wrong(format!("{}: witness not Σ-equivalent", case.label));
                    }
                }
            }
        }
    }
    report.metric("decide.parse_us", mean(&parse_us));
    report.metric("decide.core_us", mean(&core_us));
    report.metric("decide.chase_us", mean(&chase_us));
    report.metric("decide.chase_atoms", mean(&chase_atoms));
    report.metric("decide.contain_us", mean(&contain_us));
    report.metric("decide.acyclic_us", mean(&acyclic_us));
    report.metric("decide.witness_atoms", mean(&witness_atoms));
    report.metric("decide.decide_us", mean(&decide_us));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_texts_parse_with_the_expected_sigma_kinds() {
        for case in suite("Vt") {
            let p = parse(&case);
            match case.closure {
                Closure::KeyR => assert!(!p.egds.is_empty(), "{}", case.label),
                Closure::Free => assert!(p.tgds.is_empty() && p.egds.is_empty()),
                _ => {}
            }
        }
    }

    #[test]
    fn closed_databases_satisfy_their_sigma() {
        let q: ConjunctiveQuery = "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."
            .parse()
            .unwrap();
        let db = closed_database(&q, Closure::Collector, 5, 12, &mut Rng::new(3));
        let closed = sac::chase::tgd_chase(
            &db,
            &[COLLECTOR.parse().unwrap()],
            sac::chase::ChaseBudget::small(),
        );
        assert_eq!(closed.steps, 0, "already closed");

        let diamond: ConjunctiveQuery = "q(X) :- R(X, Y), R(X, Z), T(Y, Z).".parse().unwrap();
        let db = closed_database(&diamond, Closure::KeyR, 4, 12, &mut Rng::new(5));
        let r = db.relation(sac::common::intern("R")).unwrap();
        let firsts: Vec<Term> = r.iter().map(|row| row[0]).collect();
        let distinct: BTreeSet<Term> = firsts.iter().copied().collect();
        assert_eq!(firsts.len(), distinct.len(), "R's first column is a key");
    }
}
