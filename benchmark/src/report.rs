//! Turning what a run recorded into named metrics, the printed report,
//! the result line the driver reads and the detail file the suite keeps.

use crate::json::J;
use crate::manifest::{Metric, END_TO_END, PER_LAYER};
use crate::run::{Recorder, ServiceInfo};
use crate::stats::{geomean, mean, median, percentile, sorted, supported_tail};
use crate::trace::Tracer;

/// A reported value with the number of samples behind it.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Set-up as timed by `world::set_up`, plus the parts of the last one.
pub struct Setup {
    pub setup_s: f64,
    pub times: usize,
    pub datagen_s: f64,
    pub register_s: f64,
    pub reference_s: f64,
}

/// `VmHWM` of this process in MiB: its peak resident set so far.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn named(table: &'static [Metric], values: Vec<(&str, f64, usize)>) -> Vec<Value> {
    table
        .iter()
        .map(|m| {
            let (_, value, samples) = values
                .iter()
                .find(|(name, _, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value computed for metric {}", m.name));
            Value {
                name: m.name,
                unit: m.unit,
                value: *value,
                samples: *samples,
            }
        })
        .collect()
}

/// The end-to-end metrics of a run, in `END_TO_END`'s order. `None` if
/// the run completed no query (nothing to report a latency of).
pub fn end_to_end(rec: &Recorder, setup: &Setup) -> Option<Vec<Value>> {
    if rec.query_ms.is_empty() || rec.kinds.values().any(Vec::is_empty) {
        return None;
    }
    let per_kind: Vec<f64> = rec.kinds.values().map(|v| median(v)).collect();
    let operations: usize = rec.kinds.values().map(Vec::len).sum();
    let latencies = sorted(&rec.query_ms);
    let queries = rec.queries as usize;
    // One cycle's bytes over one cycle's queries, from per-kind means, so
    // that a closed loop's value does not depend on where in its cycle the
    // timed interval happened to end (it is a pure count there, and must
    // repeat exactly). An open loop sets its own, service-wide.
    let per_op = |pick: fn(&(u64, u64)) -> u64| -> f64 {
        rec.kind_counts
            .iter()
            .map(|(kind, c)| pick(c) as f64 / rec.kinds[kind].len() as f64)
            .sum()
    };
    let bytes_per_query = rec
        .bytes_per_query
        .unwrap_or_else(|| per_op(|c| c.0) / per_op(|c| c.1));
    Some(named(
        END_TO_END,
        vec![
            ("geomean_p50_ms", geomean(&per_kind), operations),
            ("throughput_qps", rec.queries as f64 / rec.busy_s, queries),
            ("latency_p50_ms", percentile(&latencies, 50.0), queries),
            ("latency_p95_ms", percentile(&latencies, 95.0), queries),
            ("bytes_scanned_per_query", bytes_per_query, queries),
            ("peak_rss_mb", peak_rss_mib(), 1),
            ("setup_s", setup.setup_s, setup.times),
        ],
    ))
}

/// Geometric mean over the kinds that have both series of
/// `median(numerator series) ÷ median(denominator series)`; 0 if none.
fn series_ratio(rec: &Recorder, numerator: &str, denominator: &str) -> (f64, Vec<(String, f64)>) {
    let mut per_kind = Vec::new();
    for (key, num) in &rec.series {
        let Some(kind) = key.strip_prefix(numerator) else {
            continue;
        };
        if let Some(den) = rec.series.get(&format!("{denominator}{kind}")) {
            let d = median(den);
            if d > 0.0 {
                per_kind.push((kind.to_string(), median(num) / d));
            }
        }
    }
    let ratios: Vec<f64> = per_kind.iter().map(|(_, r)| *r).collect();
    (
        if ratios.is_empty() {
            0.0
        } else {
            geomean(&ratios)
        },
        per_kind,
    )
}

/// Rows of the self-time table: what one operation's wall time is made
/// of, by layer. On `service.*` the operation is a query and the
/// replayed layers are per window, which the query waits for whole.
pub struct LayerRow {
    pub layer: &'static str,
    pub ms: f64,
}

pub struct Layers {
    pub metrics: Vec<Value>,
    pub table: Vec<LayerRow>,
    /// Mean wall of the operation the table splits.
    pub operation_ms: f64,
    /// `core.fusion_speedup` and `core.bytes_fraction` per query.
    pub fusion: Vec<(String, f64, f64)>,
}

/// The per-layer metrics of a traced run, in `PER_LAYER`'s order, and the
/// self-time table.
pub fn per_layer(tr: &Tracer, rec: &Recorder, info: Option<&ServiceInfo>, setup: &Setup) -> Layers {
    let ops = tr.ops as usize;
    let (fusion_speedup, speedups) = series_ratio(rec, "unfused_ms:", "fused_ms:");
    let (bytes_fraction, fractions) = series_ratio(rec, "fused_bytes:", "unfused_bytes:");
    let fusion = speedups
        .into_iter()
        .map(|(kind, s)| {
            let f = fractions
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or(0.0, |(_, f)| *f);
            (kind, s, f)
        })
        .collect();
    let (overhead_ratio, _) = series_ratio(rec, "window_ms:", "solo_ms:");

    let one = tr.sum("par.one_worker_ms");
    let two = tr.sum("par.two_worker_ms");
    let par_efficiency = if two > 0.0 { one / (2.0 * two) } else { 0.0 };
    let lookups = tr.sum("cache.hits") + tr.sum("reuse.shared_executed");
    let mut hit_ratio = if lookups > 0.0 {
        tr.sum("cache.hits") / lookups
    } else {
        0.0
    };

    let wall = tr.mean("op.wall_ms");
    let residual = wall - tr.mean("op.covered_ms");
    let mut coverage = if wall > 0.0 {
        tr.mean("op.covered_ms") / wall
    } else {
        0.0
    };
    let mut operation_ms = wall;
    let mut service_rows = Vec::new();
    let mut routing_residual = 0.0;
    if let Some(info) = info {
        // A query's latency = queue wait + its window's run_batch +
        // routing. The first comes from the service's counters, the
        // second from the replayed windows, the third is what is left.
        let latency = mean(&rec.query_ms);
        routing_residual = latency - info.queue_wait_mean_ms - wall;
        coverage = if latency > 0.0 {
            (info.queue_wait_mean_ms + wall) / latency
        } else {
            0.0
        };
        operation_ms = latency;
        let lookups = (info.cache_hits + info.shared_executed) as f64;
        hit_ratio = if lookups > 0.0 {
            info.cache_hits as f64 / lookups
        } else {
            0.0
        };
        service_rows = vec![
            LayerRow {
                layer: "service (queue wait)",
                ms: info.queue_wait_mean_ms,
            },
            LayerRow {
                layer: "service (routing residual)",
                ms: routing_residual,
            },
        ];
    }

    let mut values: Vec<(&str, f64, usize)> = vec![
        ("tpcds.datagen_s", setup.datagen_s, 1),
        ("tpcds.register_s", setup.register_s, 1),
        ("core.fusion_speedup", fusion_speedup, ops),
        ("core.bytes_fraction", bytes_fraction, ops),
        ("exec.par_efficiency", par_efficiency, ops),
        ("reuse.overhead_ratio", overhead_ratio, ops),
        ("cache.hit_ratio", hit_ratio, ops),
        ("cache.refreshes", tr.mean("cache.refreshes"), ops),
        (
            "cache.evictions",
            info.map_or(tr.mean("cache.evictions"), |i| i.cache_evictions as f64),
            ops,
        ),
        (
            "cache.subsumption_hits",
            tr.mean("cache.subsumption_hits"),
            ops,
        ),
        ("engine.residual_ms", residual, ops),
        // Fault injection is off and every response is checked, so these
        // stay 0 unless the engine degrades on its own.
        (
            "engine.fallbacks",
            rec.fallbacks as f64 / tr.ops.max(1.0),
            ops,
        ),
        ("engine.retries", rec.retries as f64 / tr.ops.max(1.0), ops),
        (
            "service.queue_wait_mean_ms",
            info.map_or(0.0, |i| i.queue_wait_mean_ms),
            rec.queries as usize,
        ),
        (
            "service.queue_wait_max_ms",
            info.map_or(0.0, |i| i.queue_wait_max_ms),
            rec.queries as usize,
        ),
        ("service.windows", info.map_or(0.0, |i| i.windows as f64), 1),
        (
            "service.mean_occupancy",
            info.map_or(0.0, |i| i.mean_occupancy),
            info.map_or(0, |i| i.windows as usize),
        ),
        (
            "service.share_rate",
            info.map_or(0.0, |i| i.share_rate),
            rec.queries as usize,
        ),
        (
            "service.routing_residual_ms",
            routing_residual,
            rec.queries as usize,
        ),
        ("trace.coverage", coverage, ops),
        // `geomean_p50_ms` as the traced run saw it; over the untraced
        // run's, it is what tracing cost.
        (
            "trace.op_p50_ms",
            geomean(&rec.kinds.values().map(|v| median(v)).collect::<Vec<_>>()),
            ops,
        ),
    ];
    // Everything else is a plain mean per operation of a summed quantity.
    for m in PER_LAYER {
        if !values.iter().any(|(name, _, _)| *name == m.name) {
            values.push((m.name, tr.mean(m.name), ops));
        }
    }

    let mut table = vec![
        LayerRow {
            layer: "sql",
            ms: tr.mean("sql.parse_ms") + tr.mean("sql.plan_ms"),
        },
        LayerRow {
            layer: "core",
            ms: tr.mean("core.optimize_ms"),
        },
        LayerRow {
            layer: "exec",
            ms: tr.mean("exec.compile_ms") + tr.mean("exec.run_ms"),
        },
        LayerRow {
            layer: "  exec scan+pipeline self",
            ms: tr.mean("exec.scan_self_ms"),
        },
        LayerRow {
            layer: "  exec join self",
            ms: tr.mean("exec.join_self_ms"),
        },
        LayerRow {
            layer: "  exec aggregate self",
            ms: tr.mean("exec.agg_self_ms"),
        },
        LayerRow {
            layer: "  exec window+sort self",
            ms: tr.mean("exec.sort_self_ms"),
        },
        LayerRow {
            layer: "reuse",
            ms: tr.mean("reuse.self_ms"),
        },
        LayerRow {
            layer: "engine (residual)",
            ms: residual,
        },
    ];
    table.extend(service_rows);
    Layers {
        metrics: named(PER_LAYER, values),
        table,
        operation_ms,
        fusion,
    }
}

/// One operation kind's timings: the median, and the highest tail
/// percentile the sample count supports with its value.
struct KindRow {
    kind: String,
    samples: usize,
    p50_ms: f64,
    tail: Option<(f64, f64)>,
}

fn kind_rows(rec: &Recorder) -> Vec<KindRow> {
    rec.kinds
        .iter()
        .map(|(kind, v)| {
            let s = sorted(v);
            KindRow {
                kind: kind.clone(),
                samples: s.len(),
                p50_ms: percentile(&s, 50.0),
                tail: supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
            }
        })
        .collect()
}

/// One finished run, as its three renderings need it.
pub struct Report<'a> {
    pub workload: &'a str,
    pub traced: bool,
    /// End-to-end metrics, or the per-layer ones of a traced run.
    pub metrics: &'a [Value],
    pub rec: &'a Recorder,
    pub info: Option<&'a ServiceInfo>,
    pub layers: Option<&'a Layers>,
}

impl Report<'_> {
    pub fn print(&self) {
        let Report {
            workload,
            traced,
            metrics,
            rec,
            info,
            layers,
        } = *self;
        println!("== {workload}{} ==", if traced { " (traced)" } else { "" });
        for m in metrics {
            println!(
                "{:<32} {:>16.4} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<32} {:>16.6} {:<10} n={}",
            "fail_ratio",
            rec.failed as f64 / rec.attempted.max(1) as f64,
            "ratio",
            rec.attempted
        );
        if let Some(why) = &rec.first_failure {
            println!("first failure: {why}");
        }
        for row in kind_rows(rec) {
            let tail = row
                .tail
                .map_or(String::new(), |(p, v)| format!("  p{p:.0}_ms {v:>10.3}"));
            println!(
                "  p50_ms[{}] {:>10.3}{tail}  n={}",
                row.kind, row.p50_ms, row.samples
            );
        }
        if let Some(i) = info {
            println!(
                "  open loop: offered {:.1} q/s, gen_lag_p95_ms {:.3}, backlog_end {}, valid {}",
                i.offered_qps, i.gen_lag_p95_ms, i.backlog_end, i.valid
            );
            println!(
            "  service: windows {} mean_occupancy {:.2} share_rate {:.3} queue_wait mean {:.3} ms max {:.3} ms, cache hits {} evictions {} shared executions {}, refused {}",
            i.windows, i.mean_occupancy, i.share_rate, i.queue_wait_mean_ms, i.queue_wait_max_ms, i.cache_hits, i.cache_evictions, i.shared_executed, i.refused
        );
        }
        if let Some(l) = layers {
            println!("  -- self time per operation ({:.3} ms) --", l.operation_ms);
            for row in &l.table {
                println!(
                    "  {:<28} {:>10.3} ms {:>6.1}%",
                    row.layer,
                    row.ms,
                    100.0 * row.ms / l.operation_ms.max(1e-12)
                );
            }
            for (kind, speedup, fraction) in &l.fusion {
                println!(
                    "  fusion_speedup[{kind}] {speedup:.3}  bytes_fraction[{kind}] {fraction:.3}"
                );
            }
        }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let Report { metrics, rec, .. } = *self;
        J::obj([
            ("correct", J::Bool(rec.failed == 0)),
            ("attempted", J::Int(rec.attempted)),
            ("failed", J::Int(rec.failed)),
            (
                "metrics",
                J::obj(metrics.iter().map(|m| {
                    (
                        m.name,
                        J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Everything the run knows, for `benchmark/out/`.
    pub fn detail(&self, settings: J, setup: &Setup) -> J {
        let Report {
            workload,
            traced,
            metrics,
            rec,
            info,
            layers,
        } = *self;
        let mut fields = vec![
            ("workload".to_string(), J::str(workload)),
            ("traced".to_string(), J::Bool(traced)),
            ("settings".to_string(), settings),
            (
                "last_setup".to_string(),
                J::obj([
                    ("generate_catalog_s", J::Num(setup.datagen_s)),
                    ("register_tables_s", J::Num(setup.register_s)),
                    ("reference_rows_s", J::Num(setup.reference_s)),
                ]),
            ),
            ("correct".to_string(), J::Bool(rec.failed == 0)),
            ("attempted".to_string(), J::Int(rec.attempted)),
            ("failed".to_string(), J::Int(rec.failed)),
            (
                "fail_ratio".to_string(),
                J::Num(rec.failed as f64 / rec.attempted.max(1) as f64),
            ),
            (
                "first_failure".to_string(),
                J::str(rec.first_failure.clone().unwrap_or_default()),
            ),
            (
                "metrics".to_string(),
                J::Arr(
                    metrics
                        .iter()
                        .map(|m| {
                            J::obj([
                                ("name", J::str(m.name)),
                                ("value", J::Num(m.value)),
                                ("unit", J::str(m.unit)),
                                ("samples", J::Int(m.samples as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "kinds".to_string(),
                J::Arr(
                    kind_rows(rec)
                        .into_iter()
                        .map(|row| {
                            let mut fields = vec![
                                ("kind", J::Str(row.kind)),
                                ("samples", J::Int(row.samples as u64)),
                                ("p50_ms", J::Num(row.p50_ms)),
                            ];
                            if let Some((p, v)) = row.tail {
                                fields.push(("tail_percentile", J::Num(p)));
                                fields.push(("tail_ms", J::Num(v)));
                            }
                            J::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(i) = info {
            fields.push((
                "open_loop".to_string(),
                J::obj([
                    ("offered_qps", J::Num(i.offered_qps)),
                    ("gen_lag_p95_ms", J::Num(i.gen_lag_p95_ms)),
                    ("backlog_end", J::Int(i.backlog_end as u64)),
                    ("valid", J::Bool(i.valid)),
                    ("refused", J::Int(i.refused)),
                    ("windows_dispatched", J::Int(i.windows)),
                    ("mean_occupancy", J::Num(i.mean_occupancy)),
                    ("share_rate", J::Num(i.share_rate)),
                    ("queue_wait_mean_ms", J::Num(i.queue_wait_mean_ms)),
                    ("queue_wait_max_ms", J::Num(i.queue_wait_max_ms)),
                    ("reuse_cache_hits", J::Int(i.cache_hits)),
                    ("reuse_cache_evictions", J::Int(i.cache_evictions)),
                    ("shared_subplans_executed", J::Int(i.shared_executed)),
                ]),
            ));
        }
        if let Some(l) = layers {
            fields.push((
                "self_time".to_string(),
                J::obj([
                    ("operation_ms", J::Num(l.operation_ms)),
                    (
                        "layers",
                        J::Arr(
                            l.table
                                .iter()
                                .map(|r| {
                                    J::obj([
                                        ("layer", J::str(r.layer.trim())),
                                        ("ms", J::Num(r.ms)),
                                        ("share", J::Num(r.ms / l.operation_ms.max(1e-12))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
            fields.push((
                "fusion".to_string(),
                J::Arr(
                    l.fusion
                        .iter()
                        .map(|(kind, s, f)| {
                            J::obj([
                                ("kind", J::str(kind.as_str())),
                                ("fusion_speedup", J::Num(*s)),
                                ("bytes_fraction", J::Num(*f)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        J::Obj(fields)
    }
}
