//! `sacbench`: the end-to-end benchmark of the sac workspace.
//!
//! ```text
//! sacbench --workload <decide|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the workload up, drives it for `--seconds`
//! seconds in whole rounds, checks every output against an independent
//! computation and prints the end-to-end metrics.  With `--trace 1` it
//! times the layers under the same inputs from outside, through the
//! layers' public functions, and prints the per-layer metrics.  The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See README.md for the workloads, the metrics and their layer map.

mod decide;
mod gyo;
mod ingest;
mod pace;
mod report;
mod rng;
mod serve;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Decide,
    Serve,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Decide, Workload::Serve, Workload::Ingest];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Decide => "decide",
            Workload::Serve => "serve",
            Workload::Ingest => "ingest",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".sacbench_tmp").join(std::process::id().to_string());
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (ignored if another run
        // still uses it).
        let _ = std::fs::remove_dir(".sacbench_tmp");
        // Commit the deletions before exiting, so the file system's
        // freeing work is not left to run under the next run's fsyncs.
        if let Ok(dir) = std::fs::File::open(".") {
            let _ = dir.sync_all();
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sacbench: {message}");
            eprintln!(
                "usage: sacbench --workload <decide|serve|ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sacbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = if args.trace {
        traced(&args, &scratch)
    } else {
        match args.workload {
            Workload::Decide => decide::run(&args),
            Workload::Serve => serve::run(&args),
            Workload::Ingest => ingest::run(&args, &scratch),
        }
    };
    drop(scratch);
    if !report.correct {
        eprintln!("sacbench: outputs were wrong, see the messages above");
    }
    println!("{}", report.to_json(args.trace));
    ExitCode::SUCCESS
}

/// The traced run: every layer group, so that every per-layer metric is
/// printed; the named workload's group gets half the time.
fn traced(args: &Args, scratch: &Scratch) -> Report {
    let mut report = Report::default();
    for workload in Workload::ALL {
        let share = if workload == args.workload { 0.5 } else { 0.25 };
        let budget = Duration::from_secs_f64(args.seconds * share);
        let part = match workload {
            Workload::Decide => decide::trace(args, budget),
            Workload::Serve => serve::trace(args, budget),
            Workload::Ingest => ingest::trace(args, budget, scratch),
        };
        report.absorb(part);
    }
    report
}
