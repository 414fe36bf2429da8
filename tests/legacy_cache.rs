//! Caches written by the retired sharded execution path stay usable.
//!
//! `tests/fixtures/sharded-cache/` is what `remedy pipeline run.plan
//! --shards 2 --threads 1 --out run.json` left behind before sharding was
//! removed: the usual single-process entries plus `shard-*` and `count-*`
//! entries and a `runs/` directory of pin manifests. Today's pipeline must
//! replay every single-process stage from it, garbage-collect the rest
//! like any other stale entry, and refuse to resume from its manifest
//! with a typed error.

use remedy::pipeline::json;
use remedy::pipeline::{run, ArtifactCache, ErrorKind, GcPolicy, PipelineOptions, Plan};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sharded-cache")
}

/// Copies `src` into `dst`, stamping every file `age` into the past.
fn copy_aged(src: &Path, dst: &Path, age: Duration) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_aged(&entry.path(), &to, age);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
            std::fs::File::options()
                .write(true)
                .open(&to)
                .unwrap()
                .set_modified(SystemTime::now() - age)
                .unwrap();
        }
    }
}

fn entry_names(cache: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn options(cache: &Path) -> PipelineOptions {
    PipelineOptions {
        cache_dir: cache.to_path_buf(),
        threads: 1,
        ..PipelineOptions::default()
    }
}

#[test]
fn sharded_cache_replays_sweeps_and_refuses_resume() {
    let work = std::env::temp_dir().join("remedy_legacy_sharded_cache");
    let _ = std::fs::remove_dir_all(&work);
    let cache = work.join("cache");
    copy_aged(
        &fixture().join("cache"),
        &cache,
        Duration::from_secs(10 * 86_400),
    );
    let plan = Plan::from_path(fixture().join("run.plan")).unwrap();

    // every single-process stage replays from the old entries
    let replay = run(&plan, &options(&cache)).unwrap();
    let kinds: Vec<&str> = replay.stages.iter().map(|s| s.stage).collect();
    assert_eq!(
        kinds,
        ["load", "discretize", "identify", "remedy", "train", "audit"]
    );
    for stage in &replay.stages {
        assert!(stage.cache_hit, "{} recomputed", stage.stage);
    }

    // the identify key and artifact match the ones the sharded run recorded
    let recorded =
        json::parse(&std::fs::read_to_string(fixture().join("run.json")).unwrap()).unwrap();
    let stages = recorded.arr_field("stages").unwrap();
    let old_identify = stages
        .iter()
        .find(|s| s.str_field("stage").ok() == Some("identify"))
        .unwrap();
    let identify = &replay.stages[2];
    assert_eq!(identify.key, old_identify.str_field("key").unwrap());
    assert_eq!(
        identify.artifact_hash,
        old_identify.str_field("artifact_hash").unwrap()
    );

    // gc sweeps the entries nothing replays any more, and only those
    let stats = ArtifactCache::open(&cache)
        .unwrap()
        .gc(&GcPolicy {
            max_bytes: None,
            max_age: Some(Duration::from_secs(86_400)),
        })
        .unwrap();
    assert_eq!(stats.entries_scanned, 11);
    assert_eq!(stats.entries_removed, 5, "2 shard + 2 count + runs/");
    let left = entry_names(&cache);
    assert_eq!(left.len(), 6, "{left:?}");
    assert!(
        left.iter()
            .all(|n| !n.starts_with("shard-") && !n.starts_with("count-") && n != "runs"),
        "{left:?}"
    );
    let rerun = run(&plan, &options(&cache)).unwrap();
    assert!(rerun.stages.iter().all(|s| s.cache_hit));

    // the sharded manifest names stage kinds this pipeline never writes
    let err = run(
        &plan,
        &PipelineOptions {
            resume: Some(fixture().join("run.json")),
            ..options(&cache)
        },
    )
    .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::CorruptArtifact, "{err}");
    assert!(
        err.to_string().contains("unknown stage kind `shard`"),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&work);
}
