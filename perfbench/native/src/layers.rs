//! `reference` (library region counts for the identify workload's output
//! check) and `layers` (timed calls into each crate's public functions,
//! the per-layer half of the traced run).

use crate::{edit_batch, JsonOut, Opts, Rng, INGEST_BATCH, TAU};
use remedy_classifiers::{Model, NaiveBayes};
use remedy_core::counting::{RegionIndex, ShardCounts};
use remedy_core::{
    identify_in, identify_in_with, persist::regions_to_text, remedy_with, try_identify_over,
    Algorithm, Enumeration, Hierarchy, IbsParams, RemedyParams, Technique,
};
use remedy_dataset::split::train_test_split;
use remedy_dataset::{persist, store, Dataset};
use remedy_fairness::{fairness_index, Explorer, FairnessIndexParams, Statistic};
use remedy_obs::{Recorder, Scope};
use remedy_pipeline::{ArtifactCache, CacheKey};
use std::hint::black_box;
use std::time::Instant;

/// The identify region-size floor every workload uses (the CLI default).
const MIN_SIZE: u64 = 30;
/// Samples per timed call.
const REPS: usize = 3;

fn params(enumeration: Enumeration) -> Result<IbsParams, String> {
    IbsParams::builder()
        .tau_c(TAU)
        .min_size(MIN_SIZE)
        .enumeration(enumeration)
        .build()
        .map_err(|e| e.to_string())
}

fn open(path: &str) -> Result<Dataset, String> {
    Dataset::open(path).map_err(|e| format!("{path}: {e}"))
}

/// Region counts the library computes for the traced run's three one-shot
/// identify invocations.
pub fn reference(opts: &Opts) -> Result<String, String> {
    let adult = open(opts.str("adult")?)?;
    let wide = open(opts.str("wide")?)?;
    let dense = identify_in(
        &Hierarchy::try_build(&adult).map_err(|e| e.to_string())?,
        &params(Enumeration::Dense)?,
        Algorithm::Optimized,
    );
    let pruned = |data: &Dataset| {
        let protected = data.schema().protected_indices();
        try_identify_over(
            data,
            &protected,
            &params(Enumeration::Pruned)?,
            Algorithm::Optimized,
        )
        .map(|r| r.len() as u64)
        .map_err(|e| e.to_string())
    };
    let mut out = JsonOut::default();
    out.int("adult_dense", dense.len() as u64);
    out.int("adult_pruned", pruned(&adult)?);
    out.int("wide_pruned", pruned(&wide)?);
    Ok(out.render())
}

/// Times `f` `reps` times; returns the samples in milliseconds and the
/// last result.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    time_consuming(reps, || (), |()| f())
}

/// Like [`time_ms`], but runs an untimed `prepare` before each sample
/// (for calls that consume their input).
fn time_consuming<I, T>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let input = prepare();
        let start = Instant::now();
        let value = black_box(f(black_box(input)));
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(value);
    }
    (samples, last.expect("reps >= 1"))
}

fn counter(recorder: &Recorder, scope: &str, name: &str) -> u64 {
    recorder.snapshot().counter(scope, name).unwrap_or(0)
}

pub fn layers(opts: &Opts) -> Result<String, String> {
    let adult_path = opts.str("adult")?;
    let wide_path = opts.str("wide")?;
    let work = std::path::PathBuf::from(opts.str("work")?);
    let seed: u64 = opts.num("seed")?;
    let mut out = JsonOut::default();

    // dataset::store, dataset::persist, core::hash
    let bytes = std::fs::read(adult_path).map_err(|e| e.to_string())?;
    let (t, stored) = time_ms(REPS, || store::from_bytes(&bytes));
    out.list("dataset.decode_ms", &t);
    let stored = stored.map_err(|e| e.to_string())?;
    let packed = stored
        .packed
        .clone()
        .ok_or("adult artifact has no packed keys")?;
    let adult = stored.data;
    let (t, text) = time_ms(REPS, || persist::dataset_to_text(&adult));
    out.list("dataset.to_text_ms", &t);
    let (t, parsed) = time_ms(REPS, || persist::dataset_from_text(&text));
    out.list("dataset.from_text_ms", &t);
    if parsed.map_err(|e| e.to_string())?.len() != adult.len() {
        return Err("text round trip changed the row count".into());
    }
    let (train, test) = train_test_split(&adult, 0.7, seed).map_err(|e| e.to_string())?;
    let (t, _) = time_ms(REPS, || store::to_binary(&train));
    out.list("dataset.to_binary_ms", &t);
    let (t, _) = time_ms(REPS, || remedy_core::stable_hash(text.as_bytes()));
    out.list("hash.stable_hash_ms", &t);
    out.list(
        "hash.stable_hash_mb_per_s",
        &t.iter()
            .map(|ms| text.len() as f64 / 1e6 / (ms / 1e3))
            .collect::<Vec<_>>(),
    );

    // pipeline::cache: one 1M-row text artifact, a fresh key per store
    let cache = ArtifactCache::open(work.join("layer-cache")).map_err(|e| e.to_string())?;
    let mut next_key = 0u128;
    let (t, stored_ok) = time_ms(REPS, || {
        next_key += 1;
        cache.store("load", CacheKey(next_key), &text, "layer timing")
    });
    stored_ok.map_err(|e| e.to_string())?;
    out.list("cache.store_ms", &t);
    let mut lookup_key = 0u128;
    let (t, hit) = time_ms(REPS, || {
        lookup_key = lookup_key % next_key + 1;
        cache.lookup("load", CacheKey(lookup_key))
    });
    if hit.as_deref() != Some(text.as_str()) {
        return Err("cache lookup did not return the stored artifact".into());
    }
    out.list("cache.lookup_ms", &t);
    drop(cache);
    std::fs::remove_dir_all(work.join("layer-cache")).map_err(|e| e.to_string())?;
    drop(text);

    // core::counting
    let (t, counts) = time_ms(REPS, || ShardCounts::scan(&adult, 1));
    out.list("counting.scan_ms", &t);
    let counts = counts.map_err(|e| e.to_string())?;
    let (t, packed_counts) = time_ms(REPS, || ShardCounts::scan_packed(&adult, &packed, 1));
    out.list("counting.scan_packed_ms", &t);
    if packed_counts.map_err(|e| e.to_string())? != counts {
        return Err("scan_packed disagrees with scan".into());
    }
    let (t, index) = time_consuming(
        REPS,
        || packed.clone(),
        |keys| RegionIndex::try_build_from_packed(&adult, keys),
    );
    out.list("counting.index_build_ms", &t);
    let mut index = index.map_err(|e| e.to_string())?;
    index.begin_deltas();
    let mut rng = Rng::new(seed);
    let mut rows = adult.len();
    let mut delta_us = Vec::new();
    for _ in 0..200 {
        let batch = edit_batch(&mut rng, &mut rows, INGEST_BATCH);
        let start = Instant::now();
        for edit in &batch {
            index.apply_edit(black_box(edit));
        }
        index.flush_deltas();
        delta_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.list("counting.delta_batch_us", &delta_us);
    drop(index);

    // core::hierarchy and core::sparse
    let (t, hierarchy) = time_consuming(REPS, || counts.clone(), ShardCounts::into_hierarchy);
    out.list("lattice.dense_ms", &t);
    let hierarchy = hierarchy.map_err(|e| e.to_string())?;
    out.int("lattice.regions_adult", hierarchy.region_count() as u64);
    let (t, sparse) = time_consuming(REPS, || counts.clone(), |c| c.into_sparse(MIN_SIZE));
    out.list("lattice.sparse_adult_ms", &t);
    sparse.map_err(|e| e.to_string())?;
    let wide = open(wide_path)?;
    let wide_counts = ShardCounts::scan(&wide, 1).map_err(|e| e.to_string())?;
    let (t, wide_sparse) =
        time_consuming(REPS, || wide_counts.clone(), |c| c.into_sparse(MIN_SIZE));
    out.list("lattice.sparse_wide_ms", &t);
    out.int(
        "lattice.regions_wide",
        wide_sparse.map_err(|e| e.to_string())?.region_count() as u64,
    );
    drop((wide, wide_counts));

    // core::identify and core::neighbor_model
    let dense = params(Enumeration::Dense)?;
    let (t, regions) = time_ms(REPS, || {
        identify_in_with(&hierarchy, &dense, Algorithm::Optimized, &Scope::disabled())
    });
    out.list("identify.scan_ms", &t);

    // serve: rendering one identify reply (canonical text + JSON escaping)
    let (t, reply) = time_ms(REPS, || {
        remedy_pipeline::json::json_str(&regions_to_text(&regions))
    });
    out.list("serve.render_ms", &t);
    out.int("serve.render_bytes", reply.len() as u64);

    // core::remedy (PS over the training split, as the pipeline's ps
    // branch does); one sample, it is the slowest call here
    let remedy_params = RemedyParams::builder()
        .technique(Technique::PreferentialSampling)
        .tau_c(TAU)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let recorder = Recorder::enabled();
    let scope = recorder.scope("remedy");
    let (t, _) = time_ms(1, || remedy_with(&train, &remedy_params, &scope));
    out.list("remedy.ps_ms", &t);
    out.int(
        "remedy.rows_duplicated",
        counter(&recorder, "remedy", "rows_duplicated"),
    );
    out.int(
        "remedy.rows_removed",
        counter(&recorder, "remedy", "rows_removed"),
    );

    // classifiers and fairness (the pipeline's train and audit stages)
    let (t, model) = time_ms(REPS, || NaiveBayes::fit(&train));
    out.list("classifiers.nb_fit_ms", &t);
    let predictions = model.predict(&test);
    let (t, _) = time_ms(REPS, || {
        let fi = fairness_index(
            &test,
            &predictions,
            Statistic::Fpr,
            &FairnessIndexParams {
                min_support: 0.1,
                alpha: 0.05,
            },
        );
        let explorer = Explorer {
            min_support: 0.1,
            ..Explorer::default()
        };
        (
            fi,
            explorer.unfair_subgroups(&test, &predictions, Statistic::Fpr, 0.1),
        )
    });
    out.list("fairness.audit_ms", &t);
    Ok(out.render())
}
