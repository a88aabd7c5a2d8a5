//! `lh-perfbench-layers` — the per-layer half of the repository
//! benchmark (see `perfbench/README.md`). It times calls into each
//! crate's public API from outside the program and prints one JSON
//! object of per-layer metrics; `perfbench/run.py --trace 1` runs it.
//!
//! ```text
//! lh-perfbench-layers --work DIR [--run ID:SCALE:SEED]... [--trace-out FILE]
//! ```
//!
//! Each `--run` is one experiment for the `core`, `harness` and `coord`
//! probes, run in the order given; the simulator-stack probes use one
//! fixed fig13 cell whatever the runs are. Envelopes land in
//! `DIR/envelopes/<id>-<seed>.json`, byte for byte what
//! `lh-experiments <id> --scale SCALE --seed SEED --format json` prints.

mod cell;
mod core_layers;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use lh_harness::{JobContext, Json, ScaleLevel};

/// Per-layer results: measured values and deterministic counts.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_owned(), value);
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        let mut values = Json::object();
        for (k, v) in &self.values {
            values.set(k, Json::from_f64(*v));
        }
        let mut counts = Json::object();
        for (k, v) in &self.counts {
            counts.set(k, *v);
        }
        Json::object().with("values", values).with("counts", counts)
    }
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    work: PathBuf,
    runs: Vec<(String, ScaleLevel, u64)>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut work = None;
    let mut runs = Vec::new();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--work" => work = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--run" => {
                let v = value()?;
                let parts: Vec<&str> = v.split(':').collect();
                let [id, scale, seed] = parts[..] else {
                    return Err(format!("--run wants ID:SCALE:SEED, got {v}"));
                };
                let seed = seed.parse().map_err(|_| format!("bad seed in --run {v}"))?;
                runs.push((id.to_owned(), scale.parse()?, seed));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        work: work.ok_or("--work DIR is required")?,
        runs,
        trace_out,
    })
}

fn run(args: &Args) -> Result<Metrics, String> {
    let registry = leakyhammer::registry();
    let runs = args
        .runs
        .iter()
        .map(|(id, scale, seed)| {
            let job = registry
                .get(id)
                .ok_or_else(|| format!("unknown experiment {id}"))?;
            Ok((job, JobContext::new(*scale, *seed)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = Metrics::default();
    let root = trace::Span::enter("layers", "bench", "", "", 0);
    core_layers::probe(&runs, &args.work, root.id(), &mut out)?;
    cell::probe(root.id(), &mut out)?;
    drop(root);
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(metrics) => {
            if let Some(path) = &args.trace_out {
                if let Err(e) = std::fs::write(path, trace::chrome_json(&trace::spans())) {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            println!("{}", metrics.to_json().to_compact());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
