//! Per-topic TF-IDF scoring (§IV-B1).
//!
//! The paper scores words *per topic*: all questions of a topic form one
//! document, term frequency is computed within that topic-document, and the
//! inverse document frequency (Eq. 7: `idf(t) = log(N / n_t)`) penalises
//! words appearing in many topics. Words scoring above a threshold in *any*
//! topic enter the clustering vocabulary.
//!
//! Term frequency is max-normalised (`tf = count / max_count_in_topic`) so
//! scores are comparable across topics of different sizes and thresholds like
//! the paper's 0.7 / 0.3 are meaningful.

use crate::tokenize::tokenize;
use std::collections::HashMap;

/// Per-topic token counts and the cross-topic document frequencies.
#[derive(Debug, Default)]
pub struct TfIdf {
    /// token → per-topic count, keyed by topic id.
    topic_counts: Vec<HashMap<String, u32>>,
    /// token → number of topics containing it.
    doc_freq: HashMap<String, u32>,
}

/// TF-IDF scores of one topic.
#[derive(Debug, Clone)]
pub struct TopicScores {
    /// Topic id.
    pub topic: u32,
    /// `(token, score)` pairs sorted by descending score (ties: token order).
    pub scores: Vec<(String, f64)>,
}

impl TfIdf {
    /// Creates an accumulator for `n_topics` topics.
    pub fn new(n_topics: usize) -> Self {
        Self {
            topic_counts: vec![HashMap::new(); n_topics],
            doc_freq: HashMap::new(),
        }
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.topic_counts.len()
    }

    /// Adds one question's text to its topic's document.
    pub fn add_document(&mut self, topic: u32, text: &str) {
        let counts = &mut self.topic_counts[topic as usize];
        for token in tokenize(text) {
            match counts.get_mut(&token) {
                Some(c) => *c += 1,
                None => {
                    // First occurrence in this topic: bump document frequency.
                    *self.doc_freq.entry(token.clone()).or_insert(0) += 1;
                    counts.insert(token, 1);
                }
            }
        }
    }

    /// Inverse document frequency of `token`: `log10(N / n_t)` (Eq. 7).
    /// Unknown tokens get the maximum idf (`df` treated as 1).
    pub fn idf(&self, token: &str) -> f64 {
        let n = self.n_topics() as f64;
        let df = f64::from(self.doc_freq.get(token).copied().unwrap_or(1).max(1));
        (n / df).log10()
    }

    /// Scores all tokens of `topic`, keeping at most `max_words` of the
    /// highest-scoring ones (the paper uses "up to 10000 words from each
    /// topic").
    pub fn topic_scores(&self, topic: u32, max_words: usize) -> TopicScores {
        let counts = &self.topic_counts[topic as usize];
        let max_count = counts.values().copied().max().unwrap_or(0);
        let mut scores: Vec<(String, f64)> = counts
            .iter()
            .map(|(token, &c)| {
                let tf = if max_count == 0 {
                    0.0
                } else {
                    f64::from(c) / f64::from(max_count)
                };
                (token.clone(), tf * self.idf(token))
            })
            .collect();
        scores.sort_by(|(ta, sa), (tb, sb)| sb.total_cmp(sa).then_with(|| ta.cmp(tb)));
        scores.truncate(max_words);
        TopicScores { topic, scores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(corpus: &[(u32, &str)], n_topics: usize) -> TfIdf {
        let mut t = TfIdf::new(n_topics);
        for &(topic, text) in corpus {
            t.add_document(topic, text);
        }
        t
    }

    #[test]
    fn idf_penalises_ubiquitous_words() {
        let t = build(
            &[
                (0, "the zoo animal"),
                (1, "the stock market"),
                (2, "the guitar chord"),
            ],
            3,
        );
        assert!(t.idf("the") < t.idf("zoo"));
        assert_eq!(t.idf("the"), 0.0); // df = N → log10(1) = 0
        assert!((t.idf("zoo") - (3.0f64).log10()).abs() < 1e-12);
    }

    #[test]
    fn topic_scores_rank_topic_words_first() {
        let t = build(
            &[
                (0, "zoo zoo zoologist the a of"),
                (1, "market stock stock the a of"),
            ],
            2,
        );
        let scores = t.topic_scores(0, 100);
        assert_eq!(scores.topic, 0);
        let top: Vec<&str> = scores
            .scores
            .iter()
            .take(2)
            .map(|(w, _)| w.as_str())
            .collect();
        assert!(top.contains(&"zoo"));
        assert!(top.contains(&"zoologist"));
        // Shared stop-words score zero.
        let the_score = scores.scores.iter().find(|(w, _)| w == "the").unwrap().1;
        assert_eq!(the_score, 0.0);
    }

    #[test]
    fn max_words_truncates() {
        let t = build(&[(0, "a b c d e f g h")], 1);
        assert_eq!(t.topic_scores(0, 3).scores.len(), 3);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let t = build(&[(0, "x x x y y z"), (1, "unrelated words here")], 2);
        let s = t.topic_scores(0, 10);
        for w in s.scores.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn empty_topic_scores_empty() {
        let t = TfIdf::new(2);
        assert!(t.topic_scores(1, 10).scores.is_empty());
    }

    #[test]
    fn document_frequency_counts_topics_not_occurrences() {
        let t = build(&[(0, "zoo zoo zoo"), (1, "zoo")], 2);
        // "zoo" appears in both topics → df = 2 → idf = log10(1) = 0.
        assert_eq!(t.idf("zoo"), 0.0);
    }

    #[test]
    fn unknown_token_gets_max_idf() {
        let t = build(&[(0, "a"), (1, "b")], 2);
        assert!((t.idf("never-seen") - (2.0f64).log10()).abs() < 1e-12);
    }

    #[test]
    fn tf_is_max_normalised() {
        let t = build(&[(0, "zoo zoo lion"), (1, "other")], 2);
        let s = t.topic_scores(0, 10);
        let zoo = s.scores.iter().find(|(w, _)| w == "zoo").unwrap().1;
        let lion = s.scores.iter().find(|(w, _)| w == "lion").unwrap().1;
        // tf(zoo)=1, tf(lion)=0.5, same idf.
        assert!((zoo - 2.0 * lion).abs() < 1e-12);
    }
}
