//! Trace-content determinism across thread counts, end to end.
//!
//! The tracing contract (DESIGN.md "Observability") says the *content*
//! of a trace — span names, nesting, deterministic arguments and
//! counters — is identical for any `--threads N`; only timestamps,
//! thread ids and the `stats` section may differ. This test runs the
//! full pipeline (profile → reduce → predict → sweep → GA feature
//! selection) at 1 and at 8 threads and compares canonical digests.
//!
//! All assertions live in one `#[test]` because the collector is
//! process-global: concurrent tests would interleave their spans.

use fgbs::core::{
    predict_with_runs, profile_reference, profile_target, reduce_cached, select_features_ga,
    sweep_k, KChoice, MicroCache, PipelineConfig,
};
use fgbs::genetic::GaConfig;
use fgbs::machine::{Arch, PARK_SCALE};
use fgbs::suites::{nr_suite, Class};
use fgbs::trace::{self, ArgValue, Trace};

/// Run the whole pipeline at `threads` workers and return the drained
/// trace.
fn traced_pipeline(threads: usize) -> Trace {
    trace::set_enabled(true);
    let _ = trace::drain(); // discard anything a previous run left over

    let cfg = PipelineConfig::fast()
        .with_k(KChoice::Fixed(4))
        .with_threads(threads);
    let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(10).collect();
    let suite = profile_reference(&apps, &cfg);
    let cache = MicroCache::new();
    let reduced = reduce_cached(&suite, &cfg, &cache);

    let atom = Arch::atom().scaled(PARK_SCALE);
    let runs = profile_target(&suite, &atom, &cfg);
    let out = predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &cfg);
    assert!(out.median_error_pct().is_finite());

    let points = sweep_k(&suite, &atom, 3, &cache, &cfg);
    assert_eq!(points.len(), 3);

    let ga = GaConfig {
        population: 6,
        generations: 2,
        seed: 3,
        ..GaConfig::default()
    };
    let sel = select_features_ga(&suite, &[atom], &ga, &cfg);
    assert!(!sel.feature_ids.is_empty());

    trace::set_enabled(false);
    trace::drain()
}

#[test]
fn trace_content_is_identical_across_thread_counts() {
    let serial = traced_pipeline(1);
    let parallel = traced_pipeline(8);

    // 1. The canonical digest — names, nesting, deterministic args,
    //    counters — matches exactly.
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "span tree/counters must not depend on the thread count"
    );

    // 2. Every stage appears, with the nesting the instrumentation
    //    promises.
    for stage in [
        "stage.profile",
        "stage.reduce",
        "stage.predict",
        "stage.sweep",
        "stage.featsel",
    ] {
        assert!(
            !parallel.spans_named(stage).is_empty(),
            "missing stage span `{stage}`"
        );
    }
    let reduce_id = parallel.spans_named("stage.reduce")[0].id;
    assert!(
        parallel
            .spans_named("reduce.wellness")
            .iter()
            .any(|s| s.parent == Some(reduce_id)),
        "reduce.wellness nests under stage.reduce"
    );
    let sweep_id = parallel.spans_named("stage.sweep")[0].id;
    let per_k = parallel.spans_named("sweep.k");
    assert_eq!(per_k.len(), 3, "one sweep.k span per swept k");
    assert!(per_k.iter().all(|s| s.parent == Some(sweep_id)));

    // 3. Worker spans graft under the pool.map that submitted them:
    //    every profile.target span, recorded on a worker thread at 8
    //    workers, has as its parent the pool.map over the 10 apps that
    //    submitted it.
    let targets = parallel.spans_named("profile.target");
    assert!(!targets.is_empty());
    let app_maps: Vec<_> = parallel
        .spans_named("pool.map")
        .into_iter()
        .filter(|m| m.args.iter().any(|a| *a == ("items", ArgValue::U64(10))))
        .collect();
    assert!(targets
        .iter()
        .all(|t| app_maps.iter().any(|m| t.parent == Some(m.id))));

    // 4. Deterministic counters carry pipeline totals.
    assert_eq!(parallel.counter("profile.codelets"), 10);
    assert!(parallel.counter("cluster.pairs") > 0);
    assert!(parallel.counter("cluster.merges") > 0);
    assert!(parallel.counter("ga.evaluations") > 0);
    assert_eq!(
        parallel.counter("ga.cache_hits") + parallel.counter("ga.cache_misses"),
        serial.counter("ga.cache_hits") + serial.counter("ga.cache_misses"),
    );

    // 5. The Chrome export is valid JSON, render-stable, and the strict
    //    summary reproduces the span population.
    let doc = trace::chrome::to_chrome(&parallel);
    let rendered = doc.render();
    let reparsed = trace::Json::parse(&rendered).expect("chrome export parses strictly");
    assert_eq!(reparsed.render(), rendered, "render-stable round-trip");
    let summary = trace::summary::summarize(&reparsed).expect("chrome export summarises");
    let total_spans: u64 = summary.rows.iter().map(|r| r.count).sum();
    assert_eq!(total_spans, parallel.spans.len() as u64);
    let table = summary.render();
    assert!(table.contains("stage.reduce"));
    assert!(table.contains("cluster.pairs"));
}
