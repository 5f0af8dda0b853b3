//! The `ingest` workload: durable writes beside reads, at parallelism 1.
//!
//! The run is a sequence of whole epochs.  Each epoch opens a fresh
//! `Database` under `SyncMode::Always` with periodic snapshots, loads a base
//! graph and registers two auto-refreshing views (the set-up), then sends a
//! stream of fact batches through `load_facts`, each followed by a read of a
//! key it just wrote and a snapshot of the small view.  The epoch ends by
//! dropping the database and reopening it with `Database::open` (recovery),
//! and with one fault probe.  A shadow set of acknowledged edges, kept by
//! the benchmark, is what every read, view and recovery is checked against.

use crate::pace::{durable_us, DiskUnit, Pace};
use crate::report::{peak_rss_mb, Report};
use crate::rng::Rng;
use crate::stats::{geomean, mean, median};
use crate::{Args, Scratch};
use sac::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::{Duration, Instant};

const NODES: usize = 2000;
const BASE_EDGES: usize = 6000;
const BATCH_EDGES: usize = 16;
const BATCHES_PER_EPOCH: usize = 150;
const SNAPSHOT_EVERY: usize = 64;
/// The hub of the small view.
const HUB: usize = 0;

const PATH_VIEW: &str = "q(X, Z) :- E(X, Y), E(Y, Z).";
fn hub_view() -> String {
    format!("q(X, Y) :- E(n{HUB}, X), E(X, Y).")
}

fn durable() -> DurabilityOptions {
    DurabilityOptions {
        sync_mode: SyncMode::Always,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// The benchmark's record of every acknowledged edge.
#[derive(Default, Clone)]
struct Shadow {
    adjacency: BTreeMap<usize, BTreeSet<usize>>,
    edges: usize,
}

impl Shadow {
    fn insert(&mut self, a: usize, b: usize) -> bool {
        let fresh = self.adjacency.entry(a).or_default().insert(b);
        self.edges += usize::from(fresh);
        fresh
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        self.adjacency.get(&a).is_some_and(|s| s.contains(&b))
    }

    fn successors(&self, a: usize) -> BTreeSet<usize> {
        self.adjacency.get(&a).cloned().unwrap_or_default()
    }

    fn hub_answers(&self) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for x in self.successors(HUB) {
            for y in self.successors(x) {
                out.insert((x, y));
            }
        }
        out
    }

    /// The digest of the two-path answers, built one source node at a
    /// time so the set is never held whole.
    fn path_digest(&self) -> (usize, u64) {
        let mut digest = (0, 0);
        for (x, ys) in &self.adjacency {
            let mut ends = BTreeSet::new();
            for y in ys {
                ends.extend(self.adjacency.get(y).into_iter().flatten().copied());
            }
            for z in ends {
                add_pair(&mut digest, *x, z);
            }
        }
        digest
    }

    fn hub_digest(&self) -> (usize, u64) {
        let mut digest = (0, 0);
        for (x, y) in self.hub_answers() {
            add_pair(&mut digest, x, y);
        }
        digest
    }
}

/// Adds one pair to an order-independent digest of a set of pairs: its
/// size and the wrapping sum of the pairs' hashes.
fn add_pair(digest: &mut (usize, u64), a: usize, b: usize) {
    let mut hasher = DefaultHasher::new();
    (a, b).hash(&mut hasher);
    digest.0 += 1;
    digest.1 = digest.1.wrapping_add(hasher.finish());
}

/// The digest of a view's answer rows, read as pairs of nodes.
fn view_digest(rows: &ResultSet) -> (usize, u64) {
    let mut digest = (0, 0);
    for t in rows.tuples() {
        add_pair(&mut digest, node(t[0]), node(t[1]));
    }
    digest
}

fn node(term: Term) -> usize {
    term.to_string()
        .trim_start_matches('n')
        .parse()
        .expect("benchmark nodes are named n<id>")
}

fn facts_text(edges: &[(usize, usize)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("E(n{a}, n{b})."))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One epoch's inputs: the base graph and the stream of fresh batches.
struct EpochInputs {
    base: Vec<(usize, usize)>,
    batches: Vec<Vec<(usize, usize)>>,
}

fn epoch_inputs(seed: u64, epoch: u64) -> EpochInputs {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(epoch));
    let mut seen = Shadow::default();
    let mut draw = |count: usize, rng: &mut Rng| {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (a, b) = (rng.below(NODES), rng.below(NODES));
            // Every tenth edge leaves the hub, so the small view grows too.
            let a = if rng.below(10) == 0 { HUB } else { a };
            if seen.insert(a, b) {
                out.push((a, b));
            }
        }
        out
    };
    let base = draw(BASE_EDGES, &mut rng);
    let batches = (0..BATCHES_PER_EPOCH)
        .map(|_| draw(BATCH_EDGES, &mut rng))
        .collect();
    EpochInputs { base, batches }
}

/// The first half of set-up: open a fresh durable database and load the
/// base graph.
fn open_loaded(dir: &Path, base_text: &str) -> Database {
    let db = Database::open_with(dir, durable()).expect("open a fresh durable database");
    db.load_facts(base_text).expect("base facts load");
    db
}

/// The second half: register the large path view and the small hub view.
fn register_views(db: &Database) -> (MaterializedView<'_>, MaterializedView<'_>) {
    (
        db.materialize(PATH_VIEW).expect("path view registers"),
        db.materialize(hub_view()).expect("hub view registers"),
    )
}

/// The WAL fault probe (one operation): a byte flipped mid-log, in a log of
/// fixed, acknowledged batches, must make `Database::open` refuse and leave
/// the file as it was.  Returns `true` when it does.
fn wal_probe(dir: &Path) -> bool {
    {
        let options = DurabilityOptions {
            sync_mode: SyncMode::Always,
            snapshot_every: 0,
        };
        let db = Database::open_with(dir, options).expect("open the probe database");
        for i in 0..8 {
            db.load_facts(&format!("P(a{i}, b{i}). P(b{i}, c{i})."))
                .expect("probe facts load");
        }
    }
    let wal = dir.join("wal.sacwal");
    let mut bytes = std::fs::read(&wal).expect("the probe WAL exists");
    // Walk the documented framing (8-byte magic, then per frame a u32 body
    // length, a u64 checksum and the body) to the middle of the fourth
    // frame's body: corruption with acknowledged frames after it.
    let body_len = |at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a frame header")) as usize
    };
    let mut frame = 8;
    for _ in 0..3 {
        frame += 12 + body_len(frame);
    }
    let target = frame + 12 + body_len(frame) / 2;
    bytes[target] ^= 0x40;
    std::fs::write(&wal, &bytes).expect("the probe WAL is writable");
    let opened = Database::open(dir);
    let untouched = std::fs::read(&wal).map(|now| now == bytes).unwrap_or(false);
    opened.is_err() && untouched
}

/// The untraced run.
pub fn run(args: &Args, scratch: &Scratch) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut writes_us = Vec::new();
    let mut point_reads_us = Vec::new();
    let mut view_reads_us = Vec::new();
    let mut recover_ms = Vec::new();
    let mut epoch_rows_per_s = Vec::new();
    let mut rows = 0usize;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut pace = Pace::new();
    let mut disk = DiskUnit::create(&scratch.root.join("disk_unit"))
        .expect("the scratch directory is writable");
    let loop_started = Instant::now();
    let mut epoch = 0u64;
    while loop_started.elapsed() < budget {
        let inputs = epoch_inputs(args.seed, epoch);
        let dir = scratch.dir(&format!("epoch{epoch}"));
        let mut shadow = Shadow::default();
        for &(a, b) in &inputs.base {
            shadow.insert(a, b);
        }
        let base_text = facts_text(&inputs.base);
        let (db, open_secs) = pace.time(|| open_loaded(&dir, &base_text));
        let ((path_view, hub_view_handle), views_secs) = pace.time(|| register_views(&db));
        setups.push(open_secs + views_secs);

        // Time inside the program's write and read calls this epoch.
        let mut epoch_us = 0.0;
        for batch in &inputs.batches {
            let text = facts_text(batch);
            let (added, secs) = pace.time(|| db.load_facts(&text));
            let write = durable_us(&pace, secs, disk.run());
            writes_us.push(write);
            report.attempted += 1;
            match added {
                Ok(n) if n == batch.len() => rows += n,
                other => report.wrong(format!(
                    "a batch of {} fresh rows gave {other:?}",
                    batch.len()
                )),
            }
            for &(a, b) in batch {
                shadow.insert(a, b);
            }

            // Read a key the batch just wrote, then the small view.
            let (a, _) = batch[batch.len() / 2];
            let read = format!("q(Y) :- E(n{a}, Y).");
            let (answer, secs) = pace.time(|| db.query(read.as_str()));
            let point_read = secs * 1e6;
            point_reads_us.push(point_read);
            let (hub_rows, secs) = pace.time(|| hub_view_handle.snapshot());
            let view_read = secs * 1e6;
            view_reads_us.push(view_read);
            epoch_us += write + point_read + view_read;
            report.attempted += 2;
            let got: BTreeSet<usize> = answer
                .map(|r| r.tuples().map(|t| node(t[0])).collect())
                .unwrap_or_default();
            if got != shadow.successors(a) {
                report.wrong(format!(
                    "read of n{a} after a write is not the acknowledged set"
                ));
            }
            let hub_got: BTreeSet<(usize, usize)> = hub_rows
                .tuples()
                .map(|t| (node(t[0]), node(t[1])))
                .collect();
            if hub_got.len() != hub_rows.len() || hub_got != shadow.hub_answers() {
                report.wrong("the hub view is not the acknowledged two-step set");
            }
        }
        epoch_rows_per_s.push((BATCHES_PER_EPOCH * BATCH_EDGES) as f64 / (epoch_us / 1e6));
        if view_digest(&path_view.snapshot()) != shadow.path_digest() {
            report.wrong("the path view differs from the acknowledged two-paths");
        }
        drop((path_view, hub_view_handle));
        drop(db);

        // Recovery.
        let (reopened, secs) = pace.time(|| Database::open(&dir));
        recover_ms.push(secs * 1e3);
        report.attempted += 1;
        match reopened {
            Ok(db) => check_recovered(&db, &shadow, &mut report),
            Err(e) => report.wrong(format!("recovery failed: {e}")),
        }

        report.attempted += 1;
        if !wal_probe(&scratch.dir(&format!("probe{epoch}"))) {
            report.failed += 1;
        }
        // The epoch's directories stay until the run ends (the scratch
        // root goes then): deleting them here would put the file system's
        // freeing work, on a disk with online discard, under the next
        // epoch's fsyncs.
        epoch += 1;
    }
    eprintln!(
        "ingest: {epoch} epochs, {rows} rows, {:.0} rows/s (epoch median), write p50 {:.1} us, point read p50 {:.1} us, view read p50 {:.1} us, recover {:.2} ms",
        median(&epoch_rows_per_s),
        median(&writes_us),
        median(&point_reads_us),
        median(&view_reads_us),
        median(&recover_ms)
    );
    eprintln!("ingest: {}", pace.summary());
    eprintln!("ingest: {}", disk.summary());
    report.metric("setup_s", median(&setups));
    report.metric("peak_rss_mb", peak_rss_mb());
    // Rows written and read back per second of the program's write and read
    // time, checkpoints and fsync stalls included; the median over epochs.
    report.metric("ops_per_s", median(&epoch_rows_per_s));
    report.metric("primary_us", median(&writes_us));
    // The two read classes' medians, combined so neither class decides
    // alone where a shared median would fall.
    report.metric(
        "secondary_us",
        geomean(&[median(&point_reads_us), median(&view_reads_us)]),
    );
    report.metric("job_ms", median(&recover_ms));
    report
}

/// After recovery the instance is exactly the acknowledged set, and the
/// recovered views are the path and hub answers computed from that set.
fn check_recovered(db: &Database, shadow: &Shadow, report: &mut Report) {
    let instance = db.snapshot();
    let recovered = instance.len();
    let all_acknowledged = instance
        .atoms()
        .all(|atom| shadow.contains(node(atom.args[0]), node(atom.args[1])));
    if recovered != shadow.edges || !all_acknowledged {
        report.wrong(format!(
            "recovered {recovered} facts, {} were acknowledged",
            shadow.edges
        ));
    }
    let mut recovered_views: Vec<(usize, u64)> = db
        .durable_views()
        .iter()
        .map(|view| view_digest(&view.snapshot()))
        .collect();
    let mut expected = vec![shadow.path_digest(), shadow.hub_digest()];
    recovered_views.sort_unstable();
    expected.sort_unstable();
    if recovered_views != expected {
        report.wrong(format!(
            "the {} recovered views are not the acknowledged path and hub answers",
            recovered_views.len()
        ));
    }
}

/// The traced run: each layer of the write path timed from outside.
pub fn trace(args: &Args, budget: Duration, scratch: &Scratch) -> Report {
    let mut report = Report::default();
    let (mut parse_us, mut apply_us, mut wal_us, mut fsync_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut refresh_us, mut delta_rows) = (Vec::new(), Vec::new());
    let (mut checkpoint_ms, mut snapshot_bytes, mut replayed, mut wal_per_row, mut heap_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started_all = Instant::now();
    let mut epoch = 0u64;
    while started_all.elapsed() < budget || epoch == 0 {
        let inputs = epoch_inputs(args.seed, epoch);
        let base_text = facts_text(&inputs.base);
        let base: Instance = base_text.parse().expect("base facts parse");

        // Twins: in memory without views; unsynced WAL without views; in
        // memory with lazy views; and the durable database itself.
        let memory = Database::from_instance(base.clone());
        let unsynced_dir = scratch.dir(&format!("unsynced{epoch}"));
        let never = DurabilityOptions {
            sync_mode: SyncMode::Never,
            snapshot_every: 0,
        };
        let unsynced = Database::open_with(&unsynced_dir, never).expect("open the unsynced twin");
        unsynced.load_facts(&base_text).expect("base facts load");
        let lazy_db = Database::from_instance(base.clone());
        let lazy = ViewOptions {
            auto_refresh: false,
            ..ViewOptions::default()
        };
        let lazy_views = [
            lazy_db
                .materialize_with(PATH_VIEW, lazy)
                .expect("view registers"),
            lazy_db
                .materialize_with(hub_view(), lazy)
                .expect("view registers"),
        ];
        let dir = scratch.dir(&format!("traced{epoch}"));
        let db = open_loaded(&dir, &base_text);
        let (path_view, hub_handle) = register_views(&db);
        let before = db.metrics();
        let mut rows = 0usize;

        for batch in &inputs.batches {
            let text = facts_text(batch);
            let t = Instant::now();
            let parsed: Instance = text.parse().expect("batch parses");
            let parse = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(parsed);
            parse_us.push(parse);

            let t = Instant::now();
            memory.load_facts(&text).expect("batch loads");
            let apply = (t.elapsed().as_secs_f64() * 1e6 - parse).max(0.0);
            apply_us.push(apply);

            let t = Instant::now();
            unsynced.load_facts(&text).expect("batch loads");
            wal_us.push((t.elapsed().as_secs_f64() * 1e6 - parse - apply).max(0.0));
            let t = Instant::now();
            unsynced.sync_wal().expect("sync");
            fsync_us.push(t.elapsed().as_secs_f64() * 1e6);

            lazy_db.load_facts(&text).expect("batch loads");
            let t = Instant::now();
            let mut delta = 0usize;
            for view in &lazy_views {
                let (refresh, _trace) = view.refresh_traced();
                delta += refresh.delta_rows;
            }
            refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
            delta_rows.push(delta as f64);

            rows += db.load_facts(&text).expect("batch loads");
            report.attempted += 5;
        }
        let after = db.metrics();
        wal_per_row.push((after.wal_bytes - before.wal_bytes) as f64 / rows.max(1) as f64);
        heap_mb.push(db.heap_bytes() as f64 / (1024.0 * 1024.0));
        // Leave a WAL tail for recovery to replay: checkpoint on the twin.
        let t = Instant::now();
        let checkpoint = unsynced.checkpoint().expect("checkpoint");
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes.push(checkpoint.bytes as f64);
        drop((path_view, hub_handle));
        drop(db);
        match Database::open(&dir) {
            Ok(recovered) => {
                let report_rows = recovered.recovery_report().map_or(0, |r| r.replayed_rows);
                replayed.push(report_rows as f64);
            }
            Err(e) => report.wrong(format!("traced recovery failed: {e}")),
        }
        report.attempted += 1;
        drop((unsynced, memory, lazy_views));
        // As in the untraced run, the directories stay until the run ends.
        epoch += 1;
    }
    report.metric("ingest.parse_us", mean(&parse_us));
    report.metric("ingest.apply_us", mean(&apply_us));
    report.metric("ingest.wal_us", mean(&wal_us));
    report.metric("ingest.fsync_us", mean(&fsync_us));
    report.metric("ingest.view_refresh_us", mean(&refresh_us));
    report.metric("ingest.view_delta_rows", mean(&delta_rows));
    report.metric("ingest.checkpoint_ms", mean(&checkpoint_ms));
    report.metric("ingest.snapshot_bytes", mean(&snapshot_bytes));
    report.metric("ingest.replayed_rows", mean(&replayed));
    report.metric("ingest.wal_bytes_per_row", mean(&wal_per_row));
    report.metric("ingest.heap_mb", mean(&heap_mb));
    report
}
