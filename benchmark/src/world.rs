//! Set-up: generated data registered in the measured session and in an
//! independent reference session, and the reference rows every response
//! is checked against.

use std::time::Instant;

use fusion_common::Value;
use fusion_engine::Session;
use fusion_exec::Table;
use fusion_tpcds::{generate_catalog, TpcdsConfig};

use crate::stats::median;
use crate::workloads::{Query, Shape, Workload, PARALLELISM, SCALE};

pub type Rows = Vec<Vec<Value>>;

pub struct World {
    /// The session under measurement: fusion on, pipelines on,
    /// [`PARALLELISM`] workers, no read latency, reuse as the workload says.
    pub session: Session,
    /// The oracle: fusion off, reuse off, pipelines off, one worker.
    pub reference: Session,
    /// Sorted reference rows per pool query.
    pub expected: Vec<Rows>,
    pub config: TpcdsConfig,
    pub datagen_s: f64,
    pub register_s: f64,
    pub reference_s: f64,
}

/// A second handle on a table's partitions (column data is `Arc`-shared).
pub fn share_table(t: &Table) -> Table {
    Table {
        name: t.name.clone(),
        columns: t.columns.clone(),
        partitions: t.partitions.clone(),
        partition_column: t.partition_column,
    }
}

/// What every measured session has in common, set explicitly so that
/// `FUSION_*` environment variables cannot change what is measured.
fn measured_settings(s: &mut Session) {
    s.set_fusion_enabled(true);
    s.set_pipelines_enabled(true);
    s.set_parallelism(PARALLELISM);
}

/// The session a traced run compares against: the tables of `like`, the
/// measured settings, reuse off, and whatever `configure` changes.
pub fn comparison_session(like: &Session, configure: impl FnOnce(&mut Session)) -> Session {
    let mut s = Session::new();
    for name in like.catalog().table_names() {
        let t = like.catalog().get(&name).expect("listed table exists");
        s.register_table(share_table(&t));
    }
    measured_settings(&mut s);
    s.set_reuse_enabled(false);
    configure(&mut s);
    s
}

fn build(seed: u64, workload: &Workload) -> Result<World, String> {
    let config = TpcdsConfig {
        scale: SCALE,
        seed,
        ..TpcdsConfig::default()
    };
    let start = Instant::now();
    let tables = generate_catalog(&config).into_tables();
    let datagen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut session = Session::new();
    measured_settings(&mut session);
    session.set_reuse_enabled(workload.reuse);
    if let Shape::Service(spec) = &workload.shape {
        session.set_reuse_config(spec.reuse_config());
    }
    let mut reference = Session::baseline();
    reference.set_pipelines_enabled(false);
    reference.set_parallelism(1);
    reference.set_reuse_enabled(false);
    for t in tables {
        reference.register_table(share_table(&t));
        session.register_table(t);
    }
    let register_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let expected = workload
        .pool
        .iter()
        .map(|q| reference_rows(&reference, q))
        .collect::<Result<_, _>>()?;
    let reference_s = start.elapsed().as_secs_f64();
    Ok(World {
        session,
        reference,
        expected,
        config,
        datagen_s,
        register_s,
        reference_s,
    })
}

pub fn reference_rows(reference: &Session, q: &Query) -> Result<Rows, String> {
    let mut rows = reference
        .sql(&q.sql)
        .map_err(|e| format!("reference run of {} failed: {e}", q.kind))?
        .rows;
    rows.sort();
    Ok(rows)
}

/// Set up `times` times and keep the last world. Returns it with the
/// median set-up time in seconds (data generation + registration +
/// reference rows), so one slow set-up does not decide `setup_s`.
pub fn set_up(seed: u64, workload: &Workload, times: usize) -> Result<(World, f64), String> {
    let mut totals = Vec::with_capacity(times);
    let mut world = None;
    for _ in 0..times.max(1) {
        drop(world.take());
        let start = Instant::now();
        world = Some(build(seed, workload)?);
        totals.push(start.elapsed().as_secs_f64());
    }
    Ok((world.expect("set up at least once"), median(&totals)))
}

/// Whether `got` holds the reference rows. Rows are compared in sorted
/// order and exactly, except `Float64`: the reference runs on one worker
/// and the measured session on two, and merging per-worker partial
/// aggregates re-associates float sums, which moves them by a few ulps
/// (`bench_parallel` documents the same), so floats may differ by 1e-9
/// relative.
pub fn rows_match(mut got: Rows, expected: &Rows) -> bool {
    got.sort();
    got.len() == expected.len()
        && got.iter().zip(expected).all(|(a, b)| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| match (x, y) {
                    (Value::Float64(x), Value::Float64(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}
