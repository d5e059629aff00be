//! Balanced graph partitioning (the METIS stand-in).
//!
//! [`partition_balanced`] mimics what the paper uses METIS for: partitions
//! balanced in vertex count with a reduced edge cut. It grows regions by
//! BFS from spread-out seeds, then runs a boundary-refinement pass moving
//! vertices to the neighboring partition that hosts most of their edges,
//! subject to a balance constraint. [`partition_random`] is the
//! no-structure baseline.

use plasma_sim::DetRng;

use crate::graph::Graph;

/// An assignment of every vertex to one of `k` parts.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// `assignment[v]` is the part of vertex `v`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub parts: u32,
}

impl Partitioning {
    /// Returns the number of vertices in each part.
    pub fn part_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.parts as usize];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Returns, per part, the number of edges whose *source* lives in the
    /// part — the PageRank work a worker owning the part must do each
    /// iteration.
    pub fn part_edges(&self, graph: &Graph) -> Vec<u64> {
        let mut edges = vec![0u64; self.parts as usize];
        for v in 0..graph.vertex_count() {
            edges[self.assignment[v as usize] as usize] += graph.out_degree(v);
        }
        edges
    }

    /// Returns the number of directed edges crossing parts.
    pub fn edge_cut(&self, graph: &Graph) -> u64 {
        let mut cut = 0;
        for v in 0..graph.vertex_count() {
            let pv = self.assignment[v as usize];
            for &w in graph.out_neighbors(v) {
                if self.assignment[w as usize] != pv {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Returns the vertex imbalance: max part size over the ideal size.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.assignment.len() as f64 / self.parts as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }

    /// Returns the `k x k` matrix of directed cross-part edge counts:
    /// `m[i][j]` is the number of edges from part `i` to part `j != i`
    /// (diagonal entries are zero). This drives pairwise update traffic in
    /// the distributed PageRank.
    pub fn cut_matrix(&self, graph: &Graph) -> Vec<Vec<u64>> {
        let k = self.parts as usize;
        let mut m = vec![vec![0u64; k]; k];
        for v in 0..graph.vertex_count() {
            let pv = self.assignment[v as usize] as usize;
            for &w in graph.out_neighbors(v) {
                let pw = self.assignment[w as usize] as usize;
                if pw != pv {
                    m[pv][pw] += 1;
                }
            }
        }
        m
    }

    /// Returns, per part, the number of cut edges incident to it (the
    /// boundary traffic a PageRank worker exchanges each iteration).
    pub fn boundary_edges(&self, graph: &Graph) -> Vec<u64> {
        let mut boundary = vec![0u64; self.parts as usize];
        for v in 0..graph.vertex_count() {
            let pv = self.assignment[v as usize];
            for &w in graph.out_neighbors(v) {
                let pw = self.assignment[w as usize];
                if pw != pv {
                    boundary[pv as usize] += 1;
                    boundary[pw as usize] += 1;
                }
            }
        }
        boundary
    }
}

/// Assigns vertices to parts uniformly at random (balanced in expectation).
pub fn partition_random(graph: &Graph, k: u32, rng: &mut DetRng) -> Partitioning {
    let mut assignment: Vec<u32> = (0..graph.vertex_count()).map(|v| v % k).collect();
    rng.shuffle(&mut assignment);
    Partitioning {
        assignment,
        parts: k,
    }
}

/// Produces a vertex-balanced partitioning with reduced edge cut.
///
/// `balance_slack` bounds part growth: no part exceeds
/// `ceil(n / k) * balance_slack` vertices (METIS defaults to ~3% slack;
/// 1.03 is a good value).
///
/// # Panics
///
/// Panics if `k == 0` or the graph is empty.
pub fn partition_balanced(
    graph: &Graph,
    k: u32,
    balance_slack: f64,
    rng: &mut DetRng,
) -> Partitioning {
    assert!(k > 0, "need at least one part");
    let n = graph.vertex_count();
    assert!(n > 0, "empty graph");
    let cap = ((n as f64 / k as f64).ceil() * balance_slack).ceil() as u64;
    let mut assignment = vec![u32::MAX; n as usize];
    let mut sizes = vec![0u64; k as usize];

    // Phase 1: BFS region growing from k spread-out seeds.
    let mut order: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut queues: Vec<std::collections::VecDeque<u32>> =
        (0..k).map(|_| std::collections::VecDeque::new()).collect();
    for (p, &seed) in order.iter().take(k as usize).enumerate() {
        queues[p].push_back(seed);
    }
    let mut unassigned = n as u64;
    let mut fallback_cursor = 0usize;
    while unassigned > 0 {
        let mut progressed = false;
        for p in 0..k as usize {
            if sizes[p] >= cap {
                continue;
            }
            // Grow this region by one vertex.
            let v = loop {
                match queues[p].pop_front() {
                    Some(v) if assignment[v as usize] == u32::MAX => break Some(v),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let v = match v {
                Some(v) => v,
                None => {
                    // Seed exhausted: jump to any unassigned vertex.
                    while fallback_cursor < order.len()
                        && assignment[order[fallback_cursor] as usize] != u32::MAX
                    {
                        fallback_cursor += 1;
                    }
                    match order.get(fallback_cursor) {
                        Some(&v) => v,
                        None => continue,
                    }
                }
            };
            assignment[v as usize] = p as u32;
            sizes[p] += 1;
            unassigned -= 1;
            progressed = true;
            for &w in graph.out_neighbors(v) {
                if assignment[w as usize] == u32::MAX {
                    queues[p].push_back(w);
                }
            }
            if unassigned == 0 {
                break;
            }
        }
        if !progressed {
            // All parts at capacity yet vertices remain (can only happen
            // with tiny slack): place leftovers in the smallest part.
            for v in 0..n {
                if assignment[v as usize] == u32::MAX {
                    let p = sizes
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &s)| s)
                        .map(|(i, _)| i)
                        .expect("k > 0");
                    assignment[v as usize] = p as u32;
                    sizes[p] += 1;
                    unassigned -= 1;
                }
            }
        }
    }

    // Phase 2: boundary refinement. Move vertices toward the neighboring
    // part holding most of their edges when balance allows.
    for _ in 0..2 {
        for v in 0..n {
            let pv = assignment[v as usize];
            let mut counts = vec![0u32; k as usize];
            for &w in graph.out_neighbors(v) {
                counts[assignment[w as usize] as usize] += 1;
            }
            let (best, &best_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .expect("k > 0");
            if best as u32 != pv
                && best_count > counts[pv as usize]
                && sizes[best] < cap
                && sizes[pv as usize] > 1
            {
                assignment[v as usize] = best as u32;
                sizes[best] += 1;
                sizes[pv as usize] -= 1;
            }
        }
    }

    Partitioning {
        assignment,
        parts: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::preferential_attachment;

    fn graph() -> Graph {
        preferential_attachment(2_000, 4, &mut DetRng::new(3))
    }

    #[test]
    fn balanced_partition_covers_all_vertices() {
        let g = graph();
        let p = partition_balanced(&g, 8, 1.03, &mut DetRng::new(5));
        assert_eq!(p.assignment.len(), g.vertex_count() as usize);
        assert!(p.assignment.iter().all(|&a| a < 8));
        assert_eq!(p.part_sizes().iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn balanced_partition_respects_slack() {
        let g = graph();
        let p = partition_balanced(&g, 8, 1.03, &mut DetRng::new(5));
        assert!(p.imbalance() <= 1.06, "imbalance {}", p.imbalance());
    }

    #[test]
    fn refinement_beats_random_cut() {
        let g = graph();
        let balanced = partition_balanced(&g, 8, 1.03, &mut DetRng::new(5));
        let random = partition_random(&g, 8, &mut DetRng::new(5));
        assert!(
            balanced.edge_cut(&g) < random.edge_cut(&g),
            "balanced {} vs random {}",
            balanced.edge_cut(&g),
            random.edge_cut(&g)
        );
    }

    #[test]
    fn vertex_balance_does_not_imply_edge_balance_on_power_law() {
        // The crux of §5.4: balanced vertices, skewed work.
        let g = graph();
        let p = partition_balanced(&g, 8, 1.03, &mut DetRng::new(5));
        let edges = p.part_edges(&g);
        let max = *edges.iter().max().unwrap() as f64;
        let min = *edges.iter().min().unwrap() as f64;
        assert!(max / min > 1.15, "edge loads suspiciously even: {edges:?}");
    }

    #[test]
    fn part_edges_sum_to_edge_count() {
        let g = graph();
        let p = partition_balanced(&g, 4, 1.03, &mut DetRng::new(5));
        assert_eq!(p.part_edges(&g).iter().sum::<u64>(), g.edge_count());
    }

    #[test]
    fn cut_matrix_sums_to_edge_cut() {
        let g = graph();
        let p = partition_balanced(&g, 4, 1.03, &mut DetRng::new(5));
        let m = p.cut_matrix(&g);
        let total: u64 = m.iter().flatten().sum();
        assert_eq!(total, p.edge_cut(&g));
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0, "diagonal must be zero");
        }
    }

    #[test]
    fn single_part_has_no_cut() {
        let g = graph();
        let p = partition_balanced(&g, 1, 1.1, &mut DetRng::new(5));
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.boundary_edges(&g), vec![0]);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::gen::uniform_random;
    use plasma_sim::rng::check_cases;

    #[test]
    fn partition_is_total_and_bounded() {
        check_cases("partition_is_total_and_bounded", 32, |rng| {
            let n = 16 + rng.below(384) as u32;
            let m = 1 + rng.below(3) as u32;
            let k = 1 + rng.below(8) as u32;
            let seed = rng.below(1_000);
            let g = uniform_random(n, m, &mut DetRng::new(seed));
            let p = partition_balanced(&g, k, 1.05, &mut DetRng::new(seed + 1));
            assert_eq!(p.assignment.len(), n as usize);
            assert!(p.assignment.iter().all(|&a| a < k));
            assert_eq!(p.part_sizes().iter().sum::<u64>(), n as u64);
            // Every part non-empty when k <= n.
            let sizes = p.part_sizes();
            if k <= n {
                assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
            }
        });
    }
}
