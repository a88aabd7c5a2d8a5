//! The `core`, `harness` and `coord` probes: walk each job's unit DAG
//! through the public `Job` API on two threads (as `--jobs 2` does),
//! then push every unit result through the cache, the JSON codec and
//! the coordinator wire format.

use std::path::Path;
use std::time::{Duration, Instant};

use lh_harness::json::parse;
use lh_harness::{
    derive_seed, metrics_block, metrics_to_json, pool, unit_key, wrap_entry, DiskCache,
    ExperimentRun, Job, JobContext, Json, RunStats,
};

use crate::trace::Span;
use crate::{median, Metrics};

/// Worker threads of the DAG walk: the `--jobs 2` of the CLI workloads.
const THREADS: usize = 2;

/// One unit's outcome.
#[derive(Debug, Clone)]
struct UnitOut {
    experiment: &'static str,
    label: String,
    result: Json,
    metrics: Json,
    busy: Duration,
}

/// Runs every `(job, ctx)` one after another, as `lh-experiments all`
/// does, writing each envelope to `envelopes/<id>-<seed>.json` in the
/// CLI's `--format json` bytes. Returns the flat unit list and the
/// envelopes in run order.
fn drive(
    runs: &[(&dyn Job, JobContext)],
    envelopes: &Path,
    root: u64,
    out: &mut Metrics,
) -> Result<(Vec<UnitOut>, Vec<Json>), String> {
    let started = Instant::now();
    let mut all_units = Vec::new();
    let mut all_envelopes = Vec::new();
    for (job, ctx) in runs {
        let job = *job;
        let exp_span = Span::enter("experiment", "core", job.id(), "", root);
        let exp_id = exp_span.id();
        let labels = job.units(ctx);
        let deps: Vec<Vec<usize>> = (0..labels.len()).map(|i| job.deps(i, ctx)).collect();
        let units = pool::run_dag(THREADS, &deps, |i, dep_outs: Vec<UnitOut>| {
            let inputs: Vec<Json> = dep_outs.into_iter().map(|u| u.result).collect();
            let span = Span::enter("unit.run", "core", job.id(), &labels[i], exp_id);
            let (result, recorded) = lh_obs::record(|| {
                job.run_unit(i, derive_seed(job.id(), i, ctx.seed), &inputs, ctx)
            });
            let busy = span.close();
            UnitOut {
                experiment: job.id(),
                label: labels[i].clone(),
                result,
                metrics: metrics_to_json(&recorded),
                busy,
            }
        })
        .map_err(|e| format!("{}: {e}", job.id()))?;
        let per_unit: Vec<Json> = units.iter().map(|u| u.metrics.clone()).collect();
        let finish = Span::enter("finish", "core", job.id(), "", exp_id);
        let merged = job.finish(units.iter().map(|u| u.result.clone()).collect(), ctx);
        drop(finish);
        let run = ExperimentRun {
            id: job.id(),
            merged,
            metrics: metrics_block(&labels, &per_unit),
            events: None,
            stats: RunStats::default(),
        };
        let envelope = lh_harness::sink::envelope(job, &run, ctx);
        let path = envelopes.join(format!("{}-{}.json", job.id(), ctx.seed));
        std::fs::write(&path, envelope.to_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        all_envelopes.push(envelope);
        all_units.extend(units);
    }
    let wall = started.elapsed().as_secs_f64();

    let busy: Vec<f64> = all_units.iter().map(|u| u.busy.as_secs_f64()).collect();
    let busy_s = busy.iter().fold(0.0, |a, b| a + b);
    out.count("core.units", all_units.len() as u64);
    out.set("core.wall_s", wall);
    out.set("core.busy_s", busy_s);
    out.set("core.unit_p50_ms", median(&busy) * 1e3);
    out.set(
        "core.unit_max_ms",
        busy.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    out.set("harness.idle_frac", 1.0 - busy_s / (THREADS as f64 * wall));
    for id in leakyhammer::registry().ids() {
        let s = all_units
            .iter()
            .filter(|u| u.experiment == id)
            .fold(0.0, |a, u| a + u.busy.as_secs_f64());
        out.set(&format!("core.busy_s.{id}"), s);
    }
    Ok((all_units, all_envelopes))
}

/// Files and bytes under `dir`, recursively.
fn dir_usage(dir: &Path) -> Result<(u64, u64), String> {
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("reading {}: {e}", entry.path().display()))?;
        if meta.is_dir() {
            let (f, b) = dir_usage(&entry.path())?;
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    Ok((files, bytes))
}

/// `DiskCache::put`/`get` of every unit entry and merged envelope.
fn cache_probe(
    runs: &[(&dyn Job, JobContext)],
    units: &[UnitOut],
    envelopes: &[Json],
    dir: &Path,
    root: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = DiskCache::new(dir);
    let span = Span::enter("cache", "harness", "", "", root);
    let ctx_of = |id: &str| {
        runs.iter()
            .find(|(job, _)| job.id() == id)
            .map(|(job, ctx)| (*job, ctx))
            .expect("every unit belongs to a run")
    };
    let mut entries: Vec<(lh_harness::CacheKey, Json)> = units
        .iter()
        .map(|u| {
            let (job, ctx) = ctx_of(u.experiment);
            (
                unit_key(job, &u.label, ctx, false),
                wrap_entry(u.metrics.clone(), u.result.clone()),
            )
        })
        .collect();
    for ((job, ctx), envelope) in runs.iter().zip(envelopes) {
        let merged = lh_harness::merged_fingerprint(&job.units(ctx));
        entries.push((
            unit_key(*job, &merged, ctx, false),
            wrap_entry(envelope["metrics"].clone(), envelope["result"].clone()),
        ));
    }
    let mut puts = Vec::with_capacity(entries.len());
    for (key, entry) in &entries {
        let t = Instant::now();
        cache
            .put(key, entry)
            .map_err(|e| format!("cache put failed: {e}"))?;
        puts.push(t.elapsed().as_secs_f64());
    }
    let mut gets = Vec::with_capacity(entries.len());
    for (key, entry) in &entries {
        let t = Instant::now();
        let hit = cache.get(key);
        gets.push(t.elapsed().as_secs_f64());
        if hit.as_ref() != Some(entry) {
            return Err(format!(
                "cache get of {}/{} did not return what was put",
                key.experiment, key.unit
            ));
        }
    }
    drop(span);
    let (files, bytes) = dir_usage(dir)?;
    out.set("harness.cache_put_us", median(&puts) * 1e6);
    out.set("harness.cache_get_us", median(&gets) * 1e6);
    out.count("harness.cache_entries", files);
    out.count("harness.cache_bytes", bytes);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// `Json::to_compact`/`to_pretty` and `json::parse` over every unit
/// result and envelope.
fn json_probe(units: &[UnitOut], envelopes: &[Json], root: u64, out: &mut Metrics) {
    let docs: Vec<&Json> = units
        .iter()
        .map(|u| &u.result)
        .chain(envelopes.iter())
        .collect();
    let span = Span::enter("json.render", "harness", "", "", root);
    let t = Instant::now();
    let rendered: Vec<String> = docs
        .iter()
        .flat_map(|d| [d.to_compact(), d.to_pretty()])
        .collect();
    let render_s = t.elapsed().as_secs_f64();
    drop(span);
    let bytes: usize = rendered.iter().map(String::len).sum();
    let span = Span::enter("json.parse", "harness", "", "", root);
    let t = Instant::now();
    for text in &rendered {
        std::hint::black_box(parse(text).expect("rendered JSON parses"));
    }
    let parse_s = t.elapsed().as_secs_f64();
    drop(span);
    out.set(
        "harness.json_render_ns_per_byte",
        render_s * 1e9 / bytes as f64,
    );
    out.set(
        "harness.json_parse_ns_per_byte",
        parse_s * 1e9 / bytes as f64,
    );
}

/// The coordinator wire: a worker's `done` message for every unit,
/// encoded and rendered, then parsed and decoded.
fn coord_probe(units: &[UnitOut], root: u64, out: &mut Metrics) -> Result<(), String> {
    let span = Span::enter("wire", "coord", "", "", root);
    let mut encode = Vec::with_capacity(units.len());
    let mut decode = Vec::with_capacity(units.len());
    let mut bytes = 0u64;
    for u in units {
        let msg = lh_coord::FromWorker::Done {
            experiment: u.experiment.to_owned(),
            unit: 0,
            wall_ms: 0,
            metrics: u.metrics.clone(),
            result: u.result.clone(),
            events: None,
        };
        let t = Instant::now();
        let line = msg.to_json().to_compact();
        encode.push(t.elapsed().as_secs_f64());
        bytes += line.len() as u64;
        let t = Instant::now();
        let back = lh_coord::protocol::parse_line(&line)
            .and_then(|json| lh_coord::FromWorker::from_json(&json))?;
        decode.push(t.elapsed().as_secs_f64());
        if back != msg {
            return Err(format!(
                "coord wire round trip changed {}/{}",
                u.experiment, u.label
            ));
        }
    }
    drop(span);
    out.count("coord.done_bytes", bytes);
    out.set("coord.encode_us", median(&encode) * 1e6);
    out.set("coord.decode_us", median(&decode) * 1e6);
    Ok(())
}

/// Runs the `core`, `harness` and `coord` probes over `runs`.
pub fn probe(
    runs: &[(&dyn Job, JobContext)],
    work: &Path,
    root: u64,
    out: &mut Metrics,
) -> Result<(), String> {
    let envelopes_dir = work.join("envelopes");
    std::fs::create_dir_all(&envelopes_dir).map_err(|e| format!("creating envelope dir: {e}"))?;
    let (units, envelopes) = drive(runs, &envelopes_dir, root, out)?;
    cache_probe(runs, &units, &envelopes, &work.join("cache"), root, out)?;
    json_probe(&units, &envelopes, root, out);
    coord_probe(&units, root, out)
}
