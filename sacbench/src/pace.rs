//! The machine's pace, and times scaled to a reference pace.
//!
//! The benchmark runs on a shared virtual machine.  There, cache- and
//! memory-bound code slows down and speeds up together, by tens of percent
//! between consecutive runs and by up to 2.4× over a day, while a
//! register-only loop holds steady.  A run's raw times therefore say as
//! much about the neighbours as about the program.
//!
//! So every untraced run also times a fixed calibration unit: hash
//! grouping, a B-tree, a sort and short strings, the kinds of work the
//! program does, in none of its code.  Around each timed call, a unit runs
//! whenever `INTERVAL` has passed since the last one, so a long call gets
//! one on each side.  Each time the run reports is divided by the slowdown
//! of that moment: the median of the last `WINDOW` units over
//! `REFERENCE_US`.  A change to the program moves its own times and not the
//! units', so it shows in full.
//!
//! The disk drifts too, and by more: the fsync wait of the same append
//! moves by tens of percent over minutes, with tails of milliseconds.  A
//! durable write is therefore paired with a disk unit, an fsync'd append
//! of `DISK_UNIT_BYTES` to a file of its own, made right after it
//! (`DiskUnit`): the write counts its own time less the unit's, at the
//! reference pace, plus the unit's reference time `DISK_REFERENCE_US`.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::File;
use std::hash::BuildHasherDefault;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// A calibration unit's median time at the reference pace (µs).
pub const REFERENCE_US: f64 = 400.0;
/// A disk unit's median time at the reference pace (µs).
pub const DISK_REFERENCE_US: f64 = 100.0;
/// The size of a disk unit's append: about one 16-row WAL frame.
const DISK_UNIT_BYTES: usize = 192;
/// How often a unit runs, at most: about 2% of a run's time.
const INTERVAL: Duration = Duration::from_millis(20);
/// How many recent units the slowdown is the median of.  The machine's
/// pace changes within a second, so the window is short.
const WINDOW: usize = 7;

/// Hash maps with a fixed hasher, so every unit does the same work.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// One calibration unit: fixed work that depends on nothing outside it.
pub fn unit() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;

    let mut groups: HashMap<u64, Vec<u32>, FixedState> = HashMap::default();
    for i in 0..1000u32 {
        groups.entry(next() % 250).or_default().push(i);
    }
    acc += groups
        .values()
        .map(|v| v.len() as u64 * v[0] as u64)
        .sum::<u64>();

    let mut tree = BTreeMap::new();
    for i in 0..1000u64 {
        tree.insert(next() >> 44, i);
    }
    for k in 0..1000u64 {
        acc += tree.range(k << 10..).next().map_or(0, |(_, v)| *v);
    }

    let mut keys: Vec<u64> = (0..2000).map(|_| next() >> 16).collect();
    keys.sort_unstable();
    acc += keys[keys.len() / 2];

    let mut names: HashSet<String, FixedState> = HashSet::default();
    for i in 0..500u64 {
        names.insert(format!("n{}_{}", next() % 997, i % 31));
    }
    let mut names: Vec<&String> = names.iter().collect();
    names.sort_unstable();
    acc + names.len() as u64 + names[0].len() as u64
}

/// Calibration units taken through one run.
pub struct Pace {
    recent: VecDeque<f64>,
    all: Vec<f64>,
    last: Instant,
    slowdown: f64,
}

impl Pace {
    /// A pace from `WINDOW` units run now.
    pub fn new() -> Pace {
        let mut pace = Pace {
            recent: VecDeque::with_capacity(WINDOW + 1),
            all: Vec::new(),
            last: Instant::now(),
            slowdown: 1.0,
        };
        for _ in 0..WINDOW {
            pace.run_unit();
        }
        pace
    }

    /// Runs a unit if `INTERVAL` has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.run_unit();
        }
    }

    fn run_unit(&mut self) {
        let started = Instant::now();
        std::hint::black_box(unit());
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.last = Instant::now();
        self.all.push(us);
        self.recent.push_back(us);
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        self.slowdown = median(self.recent.make_contiguous()) / REFERENCE_US;
    }

    /// `raw`, a time measured just now, at the reference pace.
    pub fn scale(&self, raw: f64) -> f64 {
        raw / self.slowdown
    }

    /// Runs `op` between two ticks; its result and its time in seconds at
    /// the reference pace.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        self.tick();
        let started = Instant::now();
        let result = op();
        let secs = started.elapsed().as_secs_f64();
        self.tick();
        (result, self.scale(secs))
    }

    /// The run's median slowdown, for the log.
    pub fn summary(&self) -> String {
        format!(
            "pace: {} calibration units, median {:.1} us, slowdown {:.3} against {REFERENCE_US} us",
            self.all.len(),
            median(&self.all),
            median(&self.all) / REFERENCE_US
        )
    }
}

/// The disk's pace: fsync'd appends to a file of their own.
pub struct DiskUnit {
    file: File,
    all: Vec<f64>,
}

impl DiskUnit {
    pub fn create(path: &Path) -> std::io::Result<DiskUnit> {
        Ok(DiskUnit {
            file: File::create(path)?,
            all: Vec::new(),
        })
    }

    /// Appends `DISK_UNIT_BYTES` and waits until they are durable; the
    /// time in seconds, as measured.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        self.file
            .write_all(&[0x5a; DISK_UNIT_BYTES])
            .and_then(|()| self.file.sync_data())
            .expect("the disk unit's file is writable");
        let secs = started.elapsed().as_secs_f64();
        self.all.push(secs * 1e6);
        secs
    }

    /// The units' median, for the log.
    pub fn summary(&self) -> String {
        format!(
            "disk pace: {} units, median {:.1} us against {DISK_REFERENCE_US} us",
            self.all.len(),
            median(&self.all)
        )
    }
}

/// A durable write's time in µs at the reference pace: `write_secs` as
/// `Pace::time` gives it, `disk_secs` as the paired `DiskUnit::run` gave it.
pub fn durable_us(pace: &Pace, write_secs: f64, disk_secs: f64) -> f64 {
    (write_secs - pace.scale(disk_secs)) * 1e6 + DISK_REFERENCE_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_does_the_same_work_every_time() {
        assert_eq!(unit(), unit());
    }

    #[test]
    fn scaling_divides_by_the_recent_slowdown() {
        let mut pace = Pace::new();
        for _ in 0..WINDOW {
            pace.recent.pop_front();
            pace.recent.push_back(2.0 * REFERENCE_US);
        }
        pace.run_unit();
        assert_eq!(pace.slowdown, 2.0);
        assert_eq!(pace.scale(10.0), 5.0);
        // A 0.5 ms write paired with a 0.3 ms unit, at half the pace: the
        // 0.2 ms difference counts 0.1 ms, plus the unit's reference time.
        let us = durable_us(&pace, pace.scale(500e-6), 300e-6);
        assert!((us - (100.0 + DISK_REFERENCE_US)).abs() < 1e-9);
    }
}
