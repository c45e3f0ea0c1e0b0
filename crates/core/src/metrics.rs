//! Accuracy metrics of §6.2: average relative error (Eq. 12–13) and the
//! number of "effective queries" (Eq. 14), for both edge and aggregate
//! subgraph query sets.

use crate::query::{estimate_subgraph, Aggregator, EdgeEstimator};
use gstream::edge::Edge;
use gstream::workload::SubgraphQuery;
use gstream::ExactCounter;

/// The default effectiveness threshold `G0` (§6.2).
pub const DEFAULT_G0: f64 = 5.0;

/// Relative error `er(q) = f̃(q)/f(q) − 1` (Eq. 12). Returns infinity for
/// a positive estimate of a zero-truth query and 0 for 0/0.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        estimate / truth - 1.0
    }
}

/// Aggregate accuracy of a query set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Average relative error `e(Q)` (Eq. 13).
    pub avg_relative_error: f64,
    /// Number of effective queries `g(Q)` (Eq. 14): `er(q) ≤ G0`.
    pub effective_queries: usize,
    /// Size of the query set.
    pub total_queries: usize,
    /// The threshold used.
    pub g0: f64,
}

impl Accuracy {
    /// Fraction of effective queries.
    pub fn effective_fraction(&self) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.effective_queries as f64 / self.total_queries as f64
        }
    }
}

/// Evaluate an estimator over an edge query set against exact truth.
/// The whole query set is answered as **one batch** through
/// [`EdgeEstimator::estimate_edges`] — on the partitioned estimators
/// that replays the workload through the chunked, prefetched bank
/// gather, which is what makes §6-scale evaluation (10⁴–10⁶ queries per
/// configuration) cheap enough to re-run per memory point.
pub fn evaluate_edge_queries<E: EdgeEstimator + ?Sized>(
    estimator: &E,
    queries: &[Edge],
    truth: &ExactCounter,
    g0: f64,
) -> Accuracy {
    let mut estimates = Vec::with_capacity(queries.len());
    estimator.estimate_edges(queries, &mut estimates);
    let mut sum = 0.0f64;
    let mut effective = 0usize;
    for (&q, &est) in queries.iter().zip(&estimates) {
        let e = relative_error(est as f64, truth.frequency(q) as f64);
        sum += e;
        if e <= g0 {
            effective += 1;
        }
    }
    Accuracy {
        avg_relative_error: if queries.is_empty() {
            0.0
        } else {
            sum / queries.len() as f64
        },
        effective_queries: effective,
        total_queries: queries.len(),
        g0,
    }
}

/// Evaluate an estimator over an aggregate subgraph query set (Eq. 15).
pub fn evaluate_subgraph_queries<E: EdgeEstimator + ?Sized>(
    estimator: &E,
    queries: &[SubgraphQuery],
    truth: &ExactCounter,
    aggregator: Aggregator,
    g0: f64,
) -> Accuracy {
    let mut sum = 0.0f64;
    let mut effective = 0usize;
    for q in queries {
        let est = estimate_subgraph(estimator, q, aggregator);
        let tru = estimate_subgraph(truth, q, aggregator);
        let e = relative_error(est, tru);
        sum += e;
        if e <= g0 {
            effective += 1;
        }
    }
    Accuracy {
        avg_relative_error: if queries.is_empty() {
            0.0
        } else {
            sum / queries.len() as f64
        },
        effective_queries: effective,
        total_queries: queries.len(),
        g0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::edge::StreamEdge;

    #[test]
    fn relative_error_definition() {
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert_eq!(relative_error(20.0, 10.0), 1.0);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn exact_estimator_scores_perfectly() {
        let stream: Vec<StreamEdge> = (0..100u32)
            .map(|i| StreamEdge::unit(Edge::new(i % 10, i / 10), i as u64))
            .collect();
        let truth = ExactCounter::from_stream(&stream);
        let queries: Vec<Edge> = stream.iter().map(|s| s.edge).take(50).collect();
        let acc = evaluate_edge_queries(&truth, &queries, &truth, DEFAULT_G0);
        assert_eq!(acc.avg_relative_error, 0.0);
        assert_eq!(acc.effective_queries, 50);
        assert_eq!(acc.total_queries, 50);
        assert_eq!(acc.effective_fraction(), 1.0);
    }

    #[test]
    fn overestimates_counted_against_g0() {
        struct Doubler<'a>(&'a ExactCounter);
        impl EdgeEstimator for Doubler<'_> {
            fn estimate_edge(&self, e: Edge) -> u64 {
                self.0.frequency(e) * 8
            }
        }
        let stream = vec![StreamEdge::unit(Edge::new(1u32, 2u32), 0)];
        let truth = ExactCounter::from_stream(&stream);
        let q = vec![Edge::new(1u32, 2u32)];
        // 8x estimate → rel err 7 > G0=5 → not effective.
        let acc = evaluate_edge_queries(&Doubler(&truth), &q, &truth, DEFAULT_G0);
        assert_eq!(acc.effective_queries, 0);
        assert!((acc.avg_relative_error - 7.0).abs() < 1e-12);
        // With a looser threshold it becomes effective.
        let acc = evaluate_edge_queries(&Doubler(&truth), &q, &truth, 10.0);
        assert_eq!(acc.effective_queries, 1);
    }

    #[test]
    fn subgraph_evaluation_uses_gamma() {
        let stream = vec![
            StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 10),
            StreamEdge::weighted(Edge::new(2u32, 3u32), 0, 30),
        ];
        let truth = ExactCounter::from_stream(&stream);
        let queries = vec![SubgraphQuery {
            edges: vec![Edge::new(1u32, 2u32), Edge::new(2u32, 3u32)],
        }];
        let acc = evaluate_subgraph_queries(&truth, &queries, &truth, Aggregator::Sum, DEFAULT_G0);
        assert_eq!(acc.avg_relative_error, 0.0);
        assert_eq!(acc.effective_queries, 1);
    }

    #[test]
    fn empty_query_set_is_neutral() {
        let truth = ExactCounter::new();
        let acc = evaluate_edge_queries(&truth, &[], &truth, DEFAULT_G0);
        assert_eq!(acc.avg_relative_error, 0.0);
        assert_eq!(acc.effective_fraction(), 0.0);
    }
}
