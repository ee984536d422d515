//! Synthetic Yahoo!-Answers-like corpus.
//!
//! The paper's real-data experiments (§IV-B) use the Yahoo! Answers Webscope
//! L6 dataset — questions labelled with one of 2 916 fine-grained,
//! user-chosen topics. That corpus is proprietary, so this module generates a
//! statistically analogous one (the substitution is recorded in
//! docs/RESULTS.md):
//!
//! * each topic owns a small keyword vocabulary (`t{topic}k{rank}`) sampled
//!   with Zipfian frequencies — the "zoologist/zoo" words TF-IDF should keep;
//! * all topics share a large Zipfian background vocabulary (`w{rank}`) — the
//!   stop-word mass TF-IDF should discard;
//! * a configurable fraction of questions is *mislabelled* (text drawn from
//!   the true topic, label pointing elsewhere), modelling the user-editable
//!   topic assignments the paper blames for its low absolute purity.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One synthetic question.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Question {
    /// Space-separated tokens (already lowercased).
    pub text: String,
    /// The *recorded* topic label (possibly a mislabel).
    pub topic: u32,
    /// The topic whose vocabulary generated the text.
    pub true_topic: u32,
}

/// Corpus generation parameters.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Number of topics (paper: 2 916).
    pub n_topics: usize,
    /// Questions generated per topic (paper: up to 100).
    pub questions_per_topic: usize,
    /// Keyword vocabulary size per topic.
    pub keywords_per_topic: usize,
    /// Shared background vocabulary size.
    pub background_vocab: usize,
    /// Question length range (tokens), inclusive.
    pub words_per_question: (usize, usize),
    /// Probability that a token is drawn from the topic's keywords rather
    /// than the background vocabulary.
    pub keyword_frac: f64,
    /// Probability that a question's recorded topic is wrong.
    pub mislabel_rate: f64,
    /// Zipf exponent for both vocabularies.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// Defaults scaled for laptop runs; experiments set topic counts.
    pub fn new(n_topics: usize, questions_per_topic: usize) -> Self {
        Self {
            n_topics,
            questions_per_topic,
            keywords_per_topic: 12,
            background_vocab: 2_000,
            words_per_question: (8, 25),
            keyword_frac: 0.35,
            mislabel_rate: 0.05,
            zipf_exponent: 1.05,
            seed: 0,
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mislabel rate.
    pub fn mislabel_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.mislabel_rate = rate;
        self
    }
}

/// A generated corpus.
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    /// The questions, grouped by true topic in generation order.
    pub questions: Vec<Question>,
    /// Number of topics.
    pub n_topics: usize,
}

impl SyntheticCorpus {
    /// Generates a corpus from `config`.
    pub fn generate(config: &CorpusConfig) -> Self {
        assert!(config.n_topics > 0 && config.questions_per_topic > 0);
        assert!(config.keywords_per_topic > 0 && config.background_vocab > 0);
        let (lo, hi) = config.words_per_question;
        assert!(0 < lo && lo <= hi, "bad words_per_question range");
        assert!((0.0..=1.0).contains(&config.keyword_frac));

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0063_6f72_7075_7300); // "corpus"
        let keyword_zipf = Zipf::new(config.keywords_per_topic, config.zipf_exponent);
        let background_zipf = Zipf::new(config.background_vocab, config.zipf_exponent);

        let mut questions = Vec::with_capacity(config.n_topics * config.questions_per_topic);
        let mut text = String::new();
        for topic in 0..config.n_topics as u32 {
            for _ in 0..config.questions_per_topic {
                let len = rng.random_range(lo..=hi);
                text.clear();
                for t in 0..len {
                    if t > 0 {
                        text.push(' ');
                    }
                    if rng.random_range(0.0..1.0) < config.keyword_frac {
                        let rank = keyword_zipf.sample(&mut rng);
                        text.push_str(&format!("t{topic}k{rank}"));
                    } else {
                        let rank = background_zipf.sample(&mut rng);
                        text.push_str(&format!("w{rank}"));
                    }
                }
                let recorded =
                    if config.n_topics > 1 && rng.random_range(0.0..1.0) < config.mislabel_rate {
                        // Uniform wrong topic.
                        let mut other = rng.random_range(0..config.n_topics as u32 - 1);
                        if other >= topic {
                            other += 1;
                        }
                        other
                    } else {
                        topic
                    };
                questions.push(Question {
                    text: text.clone(),
                    topic: recorded,
                    true_topic: topic,
                });
            }
        }
        Self {
            questions,
            n_topics: config.n_topics,
        }
    }

    /// Total question count.
    pub fn len(&self) -> usize {
        self.questions.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.questions.is_empty()
    }

    /// Iterates `(text, recorded_topic)` pairs — the exact input shape of the
    /// TF-IDF pipeline.
    pub fn labelled_texts(&self) -> impl Iterator<Item = (&str, u32)> {
        self.questions.iter().map(|q| (q.text.as_str(), q.topic))
    }

    /// Fraction of questions whose recorded topic is wrong.
    pub fn observed_mislabel_rate(&self) -> f64 {
        if self.questions.is_empty() {
            return 0.0;
        }
        let wrong = self
            .questions
            .iter()
            .filter(|q| q.topic != q.true_topic)
            .count();
        wrong as f64 / self.questions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusConfig::new(10, 20).seed(1))
    }

    #[test]
    fn corpus_shape() {
        let c = small();
        assert_eq!(c.len(), 200);
        assert_eq!(c.n_topics, 10);
        assert!(!c.is_empty());
    }

    #[test]
    fn question_lengths_in_range() {
        let c = small();
        for q in &c.questions {
            let n = q.text.split(' ').count();
            assert!((8..=25).contains(&n), "length {n}");
        }
    }

    #[test]
    fn topics_in_range() {
        let c = small();
        for q in &c.questions {
            assert!(q.topic < 10);
            assert!(q.true_topic < 10);
        }
    }

    #[test]
    fn keywords_belong_to_true_topic() {
        let c = small();
        for q in &c.questions {
            for token in q.text.split(' ') {
                if let Some(rest) = token.strip_prefix('t') {
                    // Keyword tokens look like t{topic}k{rank}.
                    if let Some((topic_str, _)) = rest.split_once('k') {
                        assert_eq!(
                            topic_str.parse::<u32>().unwrap(),
                            q.true_topic,
                            "keyword {token} leaked across topics"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn questions_contain_some_keywords() {
        let c = small();
        let with_kw = c
            .questions
            .iter()
            .filter(|q| q.text.split(' ').any(|t| t.starts_with('t')))
            .count();
        // keyword_frac 0.35 over ≥8 tokens: nearly every question has one.
        assert!(
            with_kw > c.len() * 9 / 10,
            "only {with_kw}/{} have keywords",
            c.len()
        );
    }

    #[test]
    fn mislabel_rate_close_to_config() {
        let c = SyntheticCorpus::generate(&CorpusConfig::new(20, 100).mislabel_rate(0.2).seed(3));
        let observed = c.observed_mislabel_rate();
        assert!((observed - 0.2).abs() < 0.05, "observed {observed}");
        // Mislabelled questions keep their true topic's text.
        for q in &c.questions {
            if q.topic != q.true_topic {
                assert!(q.text.split(' ').all(|t| {
                    !t.starts_with('t')
                        || t.strip_prefix('t')
                            .and_then(|r| r.split_once('k'))
                            .map(|(tp, _)| tp.parse::<u32>().unwrap() == q.true_topic)
                            .unwrap_or(true)
                }));
            }
        }
    }

    #[test]
    fn zero_mislabel_rate_is_exact() {
        let c = SyntheticCorpus::generate(&CorpusConfig::new(5, 30).mislabel_rate(0.0).seed(2));
        assert_eq!(c.observed_mislabel_rate(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticCorpus::generate(&CorpusConfig::new(4, 10).seed(9));
        let b = SyntheticCorpus::generate(&CorpusConfig::new(4, 10).seed(9));
        assert_eq!(a.questions, b.questions);
    }

    #[test]
    fn labelled_texts_align() {
        let c = small();
        let pairs: Vec<_> = c.labelled_texts().collect();
        assert_eq!(pairs.len(), c.len());
        assert_eq!(pairs[0].0, c.questions[0].text);
        assert_eq!(pairs[0].1, c.questions[0].topic);
    }
}
