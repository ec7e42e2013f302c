//! The metric catalogue, order statistics and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit, its layer and the end-to-end metric it should move. `BENCHMARK.json`
//! and `perfbench/layers.json` repeat these names; a unit test keeps the
//! three in step.

/// An end-to-end metric: what a user of the workload sees.
#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
}

/// A per-layer metric, reported by the traced run only.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Module of the repository the metric describes.
    pub layer: &'static str,
}

/// End-to-end metrics, printed by every untraced run of every workload.
///
/// The unit of work behind `throughput_per_s` and `op_*` differs per
/// workload: node-phases and one flood (`flood-1m`), replications and one
/// round of ten 30-run Fig. 8 cells (`fig8-mc`), requests (`serve-zipf`). `op_tail_ms`
/// is the [`tail_q`] percentile of the operation latencies.
pub const E2E: &[E2eDef] = &[
    E2eDef {
        name: "setup_s",
        unit: "s",
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MB",
    },
    E2eDef {
        name: "throughput_per_s",
        unit: "1/s",
    },
    E2eDef {
        name: "op_p50_ms",
        unit: "ms",
    },
    E2eDef {
        name: "op_tail_ms",
        unit: "ms",
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $layer:literal) => {
        LayerDef {
            name: $name,
            unit: $unit,
            layer: $layer,
        }
    };
}

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reports 0.
pub const LAYERS: &[LayerDef] = &[
    layer!("deployment.sample_s", "s", "model.deployment"),
    layer!("topology.build_s", "s", "model.topology"),
    layer!("topology.build_nodes_per_s", "1/s", "model.topology"),
    layer!("topology.count_s", "s", "model.topology"),
    layer!("topology.fill_s", "s", "model.topology"),
    layer!("topology.adjacency_bytes", "bytes", "model.topology"),
    layer!("sharded.run_s", "s", "sim.sharded"),
    layer!("sharded.txsel_s", "s", "sim.sharded"),
    layer!("sharded.expose_s", "s", "sim.sharded"),
    layer!("sharded.classify_s", "s", "sim.sharded"),
    layer!("sharded.expose.imbalance", "ratio", "sim.sharded"),
    layer!("sharded.claim_contended_ratio", "ratio", "sim.sharded"),
    layer!("slotted.run_s", "s", "sim.slotted"),
    layer!("sim.delivery_ratio", "ratio", "sim.slotted"),
    layer!("sim.broadcasts", "count", "sim"),
    layer!("sim.deliveries", "count", "sim"),
    layer!("sim.collisions", "count", "sim"),
    layer!("sim.phases", "count", "sim"),
    layer!("sim.sinr_rejects", "count", "sim.slotted"),
    layer!("sim.losses", "count", "sim.slotted"),
    layer!("runner.replication_p50_s", "s", "sim.runner"),
    layer!("runner.replication_p99_s", "s", "sim.runner"),
    layer!("runner.busy_frac", "ratio", "sim.runner"),
    layer!("service.self_p50_s", "s", "serve"),
    layer!("service.self_p99_s", "s", "serve"),
    layer!("http.overhead_p50_s", "s", "obs.http"),
    layer!("analysis.build_p50_s", "s", "analysis"),
    layer!("cache.hit_ratio", "ratio", "analysis"),
    layer!("cache.misses", "count", "analysis"),
    layer!("cache.evictions", "count", "analysis"),
    layer!("cache.coalesced", "count", "analysis"),
    layer!("cache.resident_bytes", "bytes", "analysis"),
    layer!("unattributed_frac", "ratio", "all"),
    layer!("trace.overhead_frac", "ratio", "all"),
];

/// The simulated statistics printed as the digest: counts that repeat
/// exactly for a fixed seed, whatever the machine's speed.
pub const DIGEST: &[&str] = &[
    "sim.broadcasts",
    "sim.deliveries",
    "sim.collisions",
    "sim.phases",
];

/// True when `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values collected by one run.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked (floods, replications, requests, set-ups).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// End-to-end metric values (always measured).
    pub e2e: Values,
    /// Per-layer metric values (traced runs).
    pub layers: Values,
    /// Self seconds per layer from the benchmark's spans (traced runs).
    pub self_s: Vec<(String, f64)>,
    /// Free-form details for the report: sample counts, sizes, settings.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Nearest-rank quantile of `sorted` (ascending), `0 < q <= 1`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile reported for `n` operations: the highest, up to
/// p99, with at least ten operations beyond it, and never below the median
/// (which it is for runs of fewer than 20 operations).
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with every digit `f64` carries; non-finite values (which
/// JSON cannot hold) become 0 and are caught by the caller's checks.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Renders `{"name": {"value": v, "unit": u}, …}` for `defs`, taking
/// values from `values`; a metric the run did not produce reads 0.
pub fn metrics_json<'a>(defs: impl Iterator<Item = (&'a str, &'a str)>, values: &Values) -> String {
    let body: Vec<String> = defs
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(LAYERS.iter().map(|d| (d.name, d.unit)), &outcome.layers)
    } else {
        metrics_json(E2E.iter().map(|d| (d.name, d.unit)), &outcome.e2e)
    };
    let finite = if traced {
        LAYERS
            .iter()
            .all(|d| outcome.layers.get(d.name).unwrap_or(0.0).is_finite())
    } else {
        E2E.iter()
            .all(|d| outcome.e2e.get(d.name).is_some_and(f64::is_finite))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0 && outcome.attempted > 0 && finite,
        outcome.attempted,
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_obs::jsonval::Json;

    fn read_json(rel: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} must be an array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = E2E
            .iter()
            .map(|d| d.name)
            .chain(LAYERS.iter().map(|d| d.name))
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "illegal metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names must be unique");
        for name in DIGEST {
            assert!(
                LAYERS.iter().any(|d| d.name == *name),
                "digest {name} not a layer metric"
            );
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in ["", ".lead", "has space", "slash/x", "ünï", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_metric_name("sharded.expose.imbalance"));
    }

    #[test]
    fn catalogue_matches_benchmark_json_and_layer_map() {
        let bench = read_json("../BENCHMARK.json");
        let e2e: Vec<&str> = E2E.iter().map(|d| d.name).collect();
        let layers: Vec<&str> = LAYERS.iter().map(|d| d.name).collect();
        assert_eq!(names(&bench, "end_to_end"), e2e);
        assert_eq!(names(&bench, "per_layer"), layers);
        for (key, units) in [
            ("end_to_end", E2E.iter().map(|d| d.unit).collect::<Vec<_>>()),
            ("per_layer", LAYERS.iter().map(|d| d.unit).collect()),
        ] {
            let got: Vec<&str> = bench
                .get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| m.get("unit").and_then(Json::as_str).expect("unit"))
                .collect();
            assert_eq!(got, units, "{key} units");
        }
        let map = read_json("layers.json");
        let rows = map
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(rows.len(), LAYERS.len());
        for (row, def) in rows.iter().zip(LAYERS) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(row.get("layer").and_then(Json::as_str), Some(def.layer));
            assert!(
                row.get("moves").and_then(Json::as_str).is_some(),
                "{} moves",
                def.name
            );
            assert!(
                row.get("on").and_then(Json::as_str).is_some(),
                "{} on",
                def.name
            );
        }
    }

    #[test]
    fn result_line_has_exact_keys_and_all_metrics() {
        let mut o = Outcome::default();
        for d in E2E {
            o.e2e.set(d.name, 1.5);
        }
        o.check(true);
        let doc = Json::parse(&result_line(&o, false)).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").expect("metrics");
        for d in E2E {
            let m = metrics.get(d.name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let traced = Json::parse(&result_line(&o, true)).expect("valid JSON");
        for d in LAYERS {
            assert!(traced.get("metrics").and_then(|m| m.get(d.name)).is_some());
        }
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut o = Outcome::default();
        for d in E2E {
            o.e2e.set(d.name, 1.0);
        }
        o.check(true);
        o.check(false);
        let doc = Json::parse(&result_line(&o, false)).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0, 1.0][..1], 0.99), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(tail_q(50_000), 0.99);
        assert_eq!(tail_q(4), 0.5);
        let v: Vec<f64> = (1..=65).map(f64::from).collect();
        let tail = quantile(&v, tail_q(v.len()));
        assert_eq!(v.iter().filter(|&&x| x > tail).count(), 10);
    }
}
