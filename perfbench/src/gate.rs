//! The correctness gate: structural checks on every reply, and a
//! tie-tolerant comparison of the probe set against the reference model
//! (`svr_core::Oracle`) fed the generated documents and the acknowledged
//! writes.
//!
//! Ties are common (scores are integer visit counts), so neither check
//! looks at the order of documents whose scores are equal: a top-k answer
//! is valid when it has the right size, every row qualifies with the
//! model's score, the scores do not increase, and no unreturned document
//! scores above the worst returned one — `Oracle::assert_topk_valid`'s
//! conditions, minus its doc-id tiebreak.

use std::collections::HashSet;

use svr_core::types::{Query, SearchHit};
use svr_core::Oracle;

fn eps(score: f64) -> f64 {
    1e-6 * score.abs().max(1.0)
}

/// Structural check of one reply: at most `k` rows, non-increasing scores,
/// no duplicate key, and every key live with text containing the keywords
/// (conjunctive: all of them, disjunctive: one) per the model. With
/// `exact`, each score must also equal the model's.
pub fn check_reply(
    oracle: &Oracle,
    query: &Query,
    hits: &[SearchHit],
    exact: bool,
) -> Result<(), String> {
    if hits.len() > query.k {
        return Err(format!("{} rows for k = {}", hits.len(), query.k));
    }
    for w in hits.windows(2) {
        if w[1].score > w[0].score + eps(w[0].score) {
            return Err(format!("scores increase: {:?} before {:?}", w[0], w[1]));
        }
    }
    let mut seen = HashSet::new();
    for hit in hits {
        if !seen.insert(hit.doc) {
            return Err(format!("duplicate key {}", hit.doc));
        }
        match oracle.query_score(query, hit.doc) {
            None => {
                return Err(format!(
                    "key {} is not live or lacks the keywords of {query:?}",
                    hit.doc
                ))
            }
            Some(want) if exact && (hit.score - want).abs() > eps(want) => {
                return Err(format!(
                    "key {} scored {}, model says {want}",
                    hit.doc, hit.score
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Full check of a top-k answer against the model, tie-tolerant.
pub fn check_topk(oracle: &Oracle, query: &Query, hits: &[SearchHit]) -> Result<(), String> {
    check_reply(oracle, query, hits, true)?;
    let all = Query {
        k: usize::MAX,
        ..query.clone()
    };
    let truth = oracle.query(&all);
    let want = truth.len().min(query.k);
    if hits.len() != want {
        return Err(format!(
            "{} rows, model has {want} for {query:?}",
            hits.len()
        ));
    }
    if let Some(worst) = hits.last() {
        let returned: HashSet<_> = hits.iter().map(|h| h.doc).collect();
        if let Some(missed) = truth
            .iter()
            .find(|t| !returned.contains(&t.doc) && t.score > worst.score + eps(worst.score))
        {
            return Err(format!(
                "key {} (score {}) outranks the returned {:?} for {query:?}",
                missed.doc, missed.score, worst
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use svr_core::types::{DocId, Document, TermId};

    /// Docs 1..=6 all hold term 1; doc 7 lacks it. Docs 2 and 3 tie.
    fn model() -> Oracle {
        let docs: Vec<Document> = (1..=7u32)
            .map(|d| {
                let term = if d == 7 { 2 } else { 1 };
                Document::from_term_freqs(DocId(d), [(TermId(term), 1)])
            })
            .collect();
        let scores: HashMap<DocId, f64> = [(1, 90.0), (2, 50.0), (3, 50.0), (4, 40.0)]
            .into_iter()
            .chain([(5, 10.0), (6, 5.0), (7, 1000.0)])
            .map(|(d, s)| (DocId(d), s))
            .collect();
        Oracle::build(&docs, &scores, 0.0)
    }

    fn hits(pairs: &[(u32, f64)]) -> Vec<SearchHit> {
        pairs
            .iter()
            .map(|&(d, score)| SearchHit {
                doc: DocId(d),
                score,
            })
            .collect()
    }

    fn q(k: usize) -> Query {
        Query::conjunctive([TermId(1)], k)
    }

    #[test]
    fn accepts_the_truth_in_either_tie_order() {
        let o = model();
        check_topk(&o, &q(3), &hits(&[(1, 90.0), (2, 50.0), (3, 50.0)])).unwrap();
        check_topk(&o, &q(3), &hits(&[(1, 90.0), (3, 50.0), (2, 50.0)])).unwrap();
        // Either tied document may fill the last slot.
        check_topk(&o, &q(2), &hits(&[(1, 90.0), (3, 50.0)])).unwrap();
    }

    #[test]
    fn catches_planted_wrong_answers() {
        let o = model();
        let planted: [&[(u32, f64)]; 7] = [
            &[(1, 90.0), (2, 50.0), (4, 40.0)],   // skips a better doc
            &[(1, 90.0), (2, 51.0), (3, 50.0)],   // wrong score
            &[(1, 90.0), (1, 90.0), (2, 50.0)],   // duplicate key
            &[(7, 1000.0), (1, 90.0), (2, 50.0)], // lacks the keyword
            &[(2, 50.0), (1, 90.0), (3, 50.0)],   // scores increase
            &[(1, 90.0), (2, 50.0)],              // too few rows
            &[(1, 90.0), (2, 50.0), (3, 50.0), (4, 40.0)], // more than k
        ];
        for answer in planted {
            assert!(check_topk(&o, &q(3), &hits(answer)).is_err(), "{answer:?}");
        }
    }

    #[test]
    fn structural_check_sees_deletes_and_ignores_stale_scores() {
        let mut o = model();
        let reply = hits(&[(1, 12.0), (2, 11.0)]);
        // Scores may be in flight under concurrent writers: not exact.
        check_reply(&o, &q(10), &reply, false).unwrap();
        assert!(check_reply(&o, &q(10), &reply, true).is_err());
        o.delete_document(DocId(2)).unwrap();
        assert!(check_reply(&o, &q(10), &reply, false).is_err());
    }
}
