//! The persistence subsystem, end to end: the v2 flat binary envelope
//! round-trips every modality byte-identically and loads without
//! re-hashing; committed v1 JSON fixtures keep loading (back-compat);
//! hostile bytes — truncations, bit flips, wrong magic, oversized length
//! fields — come back as typed [`ModelError`]s, never panics; the
//! content-addressed [`ArtifactStore`] hits on identical refits, detects
//! corrupt entries instead of serving them, and GC keeps newest-first; a
//! failed reload never swaps the served generation.

use lshclust::{
    ArtifactStore, ClusterSpec, Clusterer, DatasetBuilder, FittedModel, Lsh, MixedDataset,
    ModelError, ModelHandle, NumericDataset, MODEL_VERSION, MODEL_VERSION_V2,
};
use lshclust_categorical::Dataset;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Fixtures: deterministic blobs in each modality (shared with serving.rs).
// ---------------------------------------------------------------------------

fn cat_blobs(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
    let mut b = DatasetBuilder::anonymous(n_attrs);
    for g in 0..groups {
        for i in 0..per_group {
            let row: Vec<String> = (0..n_attrs)
                .map(|a| {
                    if a == n_attrs - 1 {
                        format!("g{g}-noise{i}")
                    } else {
                        format!("g{g}-a{a}")
                    }
                })
                .collect();
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            b.push_str_row(&refs, Some(g as u32)).unwrap();
        }
    }
    b.finish()
}

fn num_blobs(groups: usize, per_group: usize) -> NumericDataset {
    let mut data = Vec::new();
    for g in 0..groups {
        let angle = g as f64 / groups as f64 * std::f64::consts::TAU;
        let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
        for i in 0..per_group {
            let jx = (i as f64 * 0.37).sin() * 0.2;
            let jy = (i as f64 * 0.71).cos() * 0.2;
            data.extend_from_slice(&[cx + jx, cy + jy]);
        }
    }
    NumericDataset::new(2, data)
}

/// The three pinned fixture models. Each is fully deterministic — same
/// blobs, same spec, same seed — so a fresh fit reproduces the committed
/// envelope's behaviour exactly.
fn fixture_models() -> Vec<(&'static str, FittedModel)> {
    let cat = Clusterer::new(
        ClusterSpec::new(4)
            .lsh(Lsh::MinHash { bands: 16, rows: 2 })
            .seed(3),
    )
    .fit(&cat_blobs(4, 6, 8))
    .unwrap()
    .model;
    let num = Clusterer::new(
        ClusterSpec::new(4)
            .lsh(Lsh::SimHash { bands: 10, rows: 3 })
            .seed(1),
    )
    .fit(&num_blobs(4, 8))
    .unwrap()
    .model;
    let cat_ds = cat_blobs(4, 8, 6);
    let num_ds = num_blobs(4, 8);
    let mixed = Clusterer::new(
        ClusterSpec::new(4)
            .lsh(Lsh::Union {
                bands: 16,
                rows: 2,
                sim_bands: 10,
                sim_rows: 3,
            })
            .seed(5),
    )
    .fit(&MixedDataset::new(&cat_ds, &num_ds))
    .unwrap()
    .model;
    vec![("categorical", cat), ("numeric", num), ("mixed", mixed)]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("model-{name}.v1.json"))
}

/// A scratch directory unique per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lshclust-persistence-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Back-compat: committed v1 JSON envelopes still load and predict
// byte-identically to a fresh deterministic fit.
//
// Regenerate the fixtures (after a *deliberate, versioned* format change)
// with: LSHCLUST_REGEN_FIXTURES=1 cargo test -p lshclust-integration \
//       --test persistence fixtures
// ---------------------------------------------------------------------------

#[test]
fn fixtures_v1_envelopes_still_load_and_predict_identically() {
    let regen = std::env::var_os("LSHCLUST_REGEN_FIXTURES").is_some();
    for (name, fresh) in fixture_models() {
        let path = fixture_path(name);
        if regen {
            fresh.save(&path).unwrap();
            eprintln!("regenerated {}", path.display());
        }
        let pinned = FittedModel::load(&path)
            .unwrap_or_else(|e| panic!("committed v1 fixture {name} must keep loading: {e}"));

        // The pinned envelope and a fresh fit serve identical answers.
        match name {
            "categorical" => {
                let ds = cat_blobs(4, 6, 8);
                assert_eq!(pinned.predict(&ds).unwrap(), fresh.predict(&ds).unwrap());
            }
            "numeric" => {
                let ds = num_blobs(4, 8);
                assert_eq!(pinned.predict(&ds).unwrap(), fresh.predict(&ds).unwrap());
            }
            "mixed" => {
                let cat_ds = cat_blobs(4, 8, 6);
                let num_ds = num_blobs(4, 8);
                let ds = MixedDataset::new(&cat_ds, &num_ds);
                assert_eq!(pinned.predict(&ds).unwrap(), fresh.predict(&ds).unwrap());
            }
            _ => unreachable!(),
        }
        // And the fixture re-serializes byte-identically: the committed
        // bytes *are* the model's canonical v1 form.
        assert_eq!(
            pinned.to_json(),
            std::fs::read_to_string(&path).unwrap(),
            "{name}: v1 fixture no longer round-trips byte-identically"
        );
    }
}

#[test]
fn save_default_is_pinned_to_v1_json() {
    let (_, model) = fixture_models().swap_remove(1);
    let dir = scratch("default");
    let v1 = dir.join("m.json");
    let v2 = dir.join("m.bin");
    model.save(&v1).unwrap();
    model.save_v2(&v2).unwrap();

    let v1_bytes = std::fs::read(&v1).unwrap();
    let v2_bytes = std::fs::read(&v2).unwrap();
    assert_eq!(v1_bytes.first(), Some(&b'{'), "save() stays v1 JSON");
    assert!(
        v2_bytes.starts_with(b"LSHM2BIN"),
        "save_v2() is the binary envelope"
    );
    assert_eq!(FittedModel::sniff_version(&v1_bytes), Some(MODEL_VERSION));
    assert_eq!(
        FittedModel::sniff_version(&v2_bytes),
        Some(MODEL_VERSION_V2)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// v2 round trip: every modality, bytes stable, predictions identical to
// the v1 path, single sniffing load entry point.
// ---------------------------------------------------------------------------

#[test]
fn v2_round_trips_every_modality_byte_identically() {
    for (name, model) in fixture_models() {
        let bytes = model.to_bytes();
        let back = FittedModel::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: v2 decode failed: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{name}: v2 re-encode changed bytes");
        assert_eq!(
            back.to_json(),
            model.to_json(),
            "{name}: v2 trip changed the model"
        );
        assert_eq!(back.has_index(), model.has_index(), "{name}");
    }
}

#[test]
fn v2_and_v1_loads_predict_identically() {
    let dir = scratch("predict");
    for (name, model) in fixture_models() {
        let v1 = dir.join(format!("{name}.json"));
        let v2 = dir.join(format!("{name}.bin"));
        model.save(&v1).unwrap();
        model.save_v2(&v2).unwrap();
        let from_v1 = FittedModel::load(&v1).unwrap();
        let from_v2 = FittedModel::load(&v2).unwrap();
        match name {
            "categorical" => {
                let ds = cat_blobs(4, 6, 8);
                assert_eq!(from_v1.predict(&ds).unwrap(), from_v2.predict(&ds).unwrap());
            }
            "numeric" => {
                let ds = num_blobs(4, 8);
                assert_eq!(from_v1.predict(&ds).unwrap(), from_v2.predict(&ds).unwrap());
            }
            "mixed" => {
                let cat_ds = cat_blobs(4, 8, 6);
                let num_ds = num_blobs(4, 8);
                let ds = MixedDataset::new(&cat_ds, &num_ds);
                assert_eq!(from_v1.predict(&ds).unwrap(), from_v2.predict(&ds).unwrap());
            }
            _ => unreachable!(),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exact_baseline_models_round_trip_through_v2_without_an_index() {
    let run = Clusterer::new(ClusterSpec::new(3).seed(7))
        .fit(&cat_blobs(3, 5, 6))
        .unwrap();
    assert!(!run.model.has_index());
    let back = FittedModel::from_bytes(&run.model.to_bytes()).unwrap();
    assert!(!back.has_index(), "Lsh::None stays index-free through v2");
    let ds = cat_blobs(3, 5, 6);
    assert_eq!(back.predict(&ds).unwrap(), run.assignments);
}

// ---------------------------------------------------------------------------
// Robustness: hostile bytes are typed errors, never panics and never
// attacker-sized allocations.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_of_a_v2_envelope_is_a_typed_error() {
    for (name, model) in fixture_models() {
        let bytes = model.to_bytes();
        for cut in 0..bytes.len() {
            match FittedModel::from_bytes(&bytes[..cut]) {
                Ok(_) => panic!("{name}: truncation at {cut}/{} decoded", bytes.len()),
                Err(ModelError::Corrupt(_) | ModelError::Envelope(_) | ModelError::Json(_)) => {}
                Err(other) => panic!("{name}: unexpected error class at {cut}: {other}"),
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_handled_without_panicking() {
    let (_, model) = fixture_models().swap_remove(1);
    let bytes = model.to_bytes();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut evil = bytes.clone();
            evil[i] ^= bit;
            // Some flips land in float payloads and still decode — that is
            // fine; the property is "typed result, no panic, no blow-up".
            let _ = FittedModel::from_bytes(&evil);
        }
    }
}

#[test]
fn wrong_magic_and_garbage_bytes_are_typed_errors() {
    let (_, model) = fixture_models().swap_remove(1);
    let mut wrong_magic = model.to_bytes();
    wrong_magic[..8].copy_from_slice(b"NOTMAGIC");
    // No magic → the sniffing path falls through to JSON and fails there.
    assert!(matches!(
        FittedModel::from_bytes(&wrong_magic),
        Err(ModelError::Json(_))
    ));
    // Non-UTF-8, non-envelope bytes.
    assert!(matches!(
        FittedModel::from_bytes(&[0xff, 0xfe, 0xfd, 0xfc]),
        Err(ModelError::Json(_))
    ));
    // Future envelope version is a version error, not a parse crash.
    let mut future = model.to_bytes();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        FittedModel::from_bytes(&future),
        Err(ModelError::Envelope(_))
    ));
}

#[test]
fn oversized_section_lengths_are_rejected_before_allocation() {
    let (_, model) = fixture_models().swap_remove(1);
    let bytes = model.to_bytes();
    // Corrupt every section-table length field (offset 16 + 24*i + 16) to
    // claim an exabyte payload; decode must reject on the length check —
    // if it tried to allocate first, this test would OOM, not fail.
    let n_sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..n_sections {
        let at = 16 + 24 * i + 16;
        let mut evil = bytes.clone();
        evil[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(
            matches!(FittedModel::from_bytes(&evil), Err(ModelError::Corrupt(_))),
            "section {i}: oversized length must be Corrupt"
        );
    }
}

/// Loads the committed v1 fixture `name` with `from` replaced by `to`, and
/// asserts the load is a typed error that names the banding, not a panic.
fn assert_banding_rejected(name: &str, from: &str, to: &str) {
    let text = std::fs::read_to_string(fixture_path(name)).unwrap();
    assert_eq!(text.matches(from).count(), 1, "{name}: `{from}`");
    let edited = text.replace(from, to);
    match std::panic::catch_unwind(|| FittedModel::from_bytes(edited.as_bytes())) {
        Ok(Err(e)) => assert!(e.to_string().contains("not positive"), "{name}: {e}"),
        Ok(Ok(_)) => panic!("{name} with `{to}` loaded"),
        Err(_) => panic!("{name} with `{to}` panicked"),
    }
}

#[test]
fn v1_categorical_envelope_with_zero_bands_or_rows_is_a_typed_error() {
    assert_banding_rejected("categorical", r#""bands": 16"#, r#""bands": 0"#);
    assert_banding_rejected("categorical", r#""rows": 2"#, r#""rows": 0"#);
}

#[test]
fn v1_numeric_envelope_with_zero_simhash_bands_is_a_typed_error() {
    assert_banding_rejected("numeric", r#""bands": 10"#, r#""bands": 0"#);
    assert_banding_rejected("mixed", r#""sim_bands": 10"#, r#""sim_bands": 0"#);
}

// ---------------------------------------------------------------------------
// ArtifactStore: hit on identical refits, refit on corruption, GC, verify.
// ---------------------------------------------------------------------------

#[test]
fn fit_or_get_hits_on_identical_spec_and_dataset_only() {
    let dir = scratch("store-hit");
    let store = ArtifactStore::open(&dir).unwrap();
    let data = num_blobs(4, 8);
    let spec = ClusterSpec::new(4)
        .lsh(Lsh::SimHash { bands: 10, rows: 3 })
        .seed(1);

    let first = store.fit_or_get(&spec, &data).unwrap();
    assert!(!first.hit, "fresh store cannot hit");
    assert!(first.run.is_some(), "a miss carries the full ClusterRun");

    let second = store.fit_or_get(&spec, &data).unwrap();
    assert!(second.hit, "identical (spec, dataset) must hit");
    assert!(second.run.is_none(), "a hit skips the fit entirely");
    assert_eq!(
        first.model.to_bytes(),
        second.model.to_bytes(),
        "hit must return the byte-identical model"
    );

    // Different seed → different args hash → miss.
    let reseeded = store.fit_or_get(&spec.clone().seed(2), &data).unwrap();
    assert!(!reseeded.hit);
    // Different dataset → different content hash → miss.
    let other = num_blobs(4, 9);
    assert!(!store.fit_or_get(&spec, &other).unwrap().hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_entries_are_detected_and_refit_not_served() {
    let dir = scratch("store-corrupt");
    let store = ArtifactStore::open(&dir).unwrap();
    let data = num_blobs(3, 6);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::SimHash { bands: 8, rows: 2 })
        .seed(9);
    let first = store.fit_or_get(&spec, &data).unwrap();
    assert!(!first.hit);

    // Flip a byte in the middle of the stored entry's payload.
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 1);
    let path = entries[0].path.clone();
    let mut raw = std::fs::read(&path).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&path, raw).unwrap();

    // verify() reports it; fit_or_get refits instead of serving it.
    let report = store.verify().unwrap();
    assert_eq!(report.ok, 0);
    assert_eq!(report.corrupt, vec![path]);

    let healed = store.fit_or_get(&spec, &data).unwrap();
    assert!(!healed.hit, "a corrupt entry must be refit, not served");
    assert_eq!(healed.model.to_bytes(), first.model.to_bytes());
    assert_eq!(store.verify().unwrap().ok, 1, "the refit heals the entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_keeps_newest_entries_within_the_byte_budget() {
    let dir = scratch("store-gc");
    let store = ArtifactStore::open(&dir).unwrap();
    let data = num_blobs(3, 6);
    // Three entries, oldest → newest by distinct seeds.
    for seed in [1u64, 2, 3] {
        let spec = ClusterSpec::new(3)
            .lsh(Lsh::SimHash { bands: 8, rows: 2 })
            .seed(seed);
        store.fit_or_get(&spec, &data).unwrap();
        // Distinct mtimes even on coarse filesystem clocks.
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 3);
    let total: u64 = entries.iter().map(|e| e.bytes).sum();
    let largest = entries.iter().map(|e| e.bytes).max().unwrap();

    let report = store.gc(total).unwrap();
    assert_eq!(
        (report.kept, report.evicted),
        (3, 0),
        "under budget keeps all"
    );

    let report = store.gc(largest).unwrap();
    assert_eq!(report.kept, 1);
    assert_eq!(report.evicted, 2);
    assert!(report.reclaimed_bytes > 0);

    // The survivor is the newest entry (seed 3).
    let left = store.entries().unwrap();
    assert_eq!(left.len(), 1);
    let newest_mtime = left[0].modified;
    assert!(entries.iter().all(|e| e.modified <= newest_mtime));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Serving: a failed v2 reload never swaps the generation.
// ---------------------------------------------------------------------------

#[test]
fn failed_reload_never_swaps_generation_or_model() {
    let dir = scratch("reload");
    let models = fixture_models();
    let numeric = &models[1].1;
    let handle = ModelHandle::new(numeric.clone());
    let gen0 = handle.generation();
    let ds = num_blobs(4, 8);
    let before = handle.model().predict(&ds).unwrap();

    // Corrupt v2 bytes: typed error, no bump, same answers.
    let mut evil = numeric.to_bytes();
    let len = evil.len();
    evil.truncate(len / 2);
    assert!(handle.reload_from_bytes(&evil).is_err());
    assert_eq!(handle.generation(), gen0, "failed reload must not bump");
    assert_eq!(handle.model().predict(&ds).unwrap(), before);

    // Missing path: same story.
    assert!(handle.reload_from_path(dir.join("nope.bin")).is_err());
    assert_eq!(handle.generation(), gen0);

    // A good v2 artifact on disk *does* swap.
    let good = dir.join("good.bin");
    numeric.save_v2(&good).unwrap();
    let gen1 = handle.reload_from_path(&good).unwrap();
    assert!(gen1 > gen0);
    assert_eq!(handle.model().predict(&ds).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
