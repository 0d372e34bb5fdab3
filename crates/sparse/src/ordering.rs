//! Fill-reducing orderings.
//!
//! Interconnect MNA matrices are tree- or ladder-structured, for which
//! reverse Cuthill–McKee (RCM) produces a small bandwidth and therefore low
//! LU fill-in. Large meshes and irregular (power-grid-class) topologies are
//! better served by approximate minimum degree ([`amd`]), whose fill grows
//! near-linearly where a banded ordering grows like `n·bandwidth`. Both
//! orderings operate on the symmetrized pattern `A + Aᵀ`; [`OrderingChoice`]
//! selects between them, with [`OrderingChoice::Auto`] deciding by the exact
//! symbolic-Cholesky fill count ([`fill_estimate`]).

use crate::csr::CsrMatrix;
use pmor_num::Scalar;

/// Selects the fill-reducing ordering policy used by factorization
/// pipelines (`[reduce] ordering` in scenario files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingChoice {
    /// No reordering: columns are eliminated in natural order.
    Natural,
    /// Reverse Cuthill–McKee ([`rcm`]) — the workspace default, best on
    /// tree/ladder interconnect.
    #[default]
    Rcm,
    /// Approximate minimum degree ([`amd`]) — best on 2-D meshes and
    /// irregular power-grid-class patterns.
    Amd,
    /// Compute both RCM and AMD and keep whichever the symbolic fill
    /// estimate ([`fill_estimate`]) scores lower.
    Auto,
}

impl OrderingChoice {
    /// Parses a scenario-file spelling (`"natural" | "rcm" | "amd" |
    /// "auto"`, case-insensitive).
    pub fn parse(name: &str) -> Option<OrderingChoice> {
        match name.to_ascii_lowercase().as_str() {
            "natural" => Some(OrderingChoice::Natural),
            "rcm" => Some(OrderingChoice::Rcm),
            "amd" => Some(OrderingChoice::Amd),
            "auto" => Some(OrderingChoice::Auto),
            _ => None,
        }
    }

    /// The canonical spelling of the policy (what [`OrderingChoice::parse`]
    /// accepts). `Auto` reports `"auto"`; the resolved pick comes from
    /// [`OrderingChoice::resolve`].
    pub fn name(self) -> &'static str {
        match self {
            OrderingChoice::Natural => "natural",
            OrderingChoice::Rcm => "rcm",
            OrderingChoice::Amd => "amd",
            OrderingChoice::Auto => "auto",
        }
    }

    /// Resolves the policy on a concrete pattern: the permutation to hand
    /// to [`crate::SparseLu::factor`] (`None` = natural order) plus the
    /// name of the ordering actually chosen (`Auto` reports its pick).
    pub fn resolve<T: Scalar>(self, a: &CsrMatrix<T>) -> (Option<Vec<usize>>, &'static str) {
        match self {
            OrderingChoice::Natural => (None, "natural"),
            OrderingChoice::Rcm => (Some(rcm(a)), "rcm"),
            OrderingChoice::Amd => (Some(amd(a)), "amd"),
            OrderingChoice::Auto => {
                let r = rcm(a);
                let m = amd(a);
                if fill_estimate(a, &m) < fill_estimate(a, &r) {
                    (Some(m), "amd")
                } else {
                    (Some(r), "rcm")
                }
            }
        }
    }
}

/// Computes a reverse Cuthill–McKee ordering of the symmetrized pattern of
/// `a`. The result is a permutation `p` such that eliminating column `p[k]`
/// at step `k` keeps fill-in low for banded/tree-like matrices.
///
/// Disconnected components are each ordered from a pseudo-peripheral start
/// node.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn rcm<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "rcm: square matrix required");
    // Build symmetric adjacency (excluding the diagonal).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c, _) in a.iter() {
        if r != c {
            adj[r].push(c);
            adj[c].push(r);
        }
    }
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];

    // Process every connected component.
    // Unvisited node of minimum degree as BFS root candidate.
    while let Some(start) = (0..n).filter(|&i| !visited[i]).min_by_key(|&i| degree[i]) {
        let root = pseudo_peripheral(start, &adj, &visited);

        // Cuthill–McKee BFS, neighbors sorted by increasing degree.
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbrs: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            nbrs.sort_by_key(|&v| degree[v]);
            for v in nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Finds a pseudo-peripheral node by repeated BFS level-structure
/// exploration (George–Liu heuristic).
fn pseudo_peripheral(start: usize, adj: &[Vec<usize>], global_visited: &[bool]) -> usize {
    let n = adj.len();
    let mut node = start;
    let mut last_ecc = 0usize;
    for _ in 0..8 {
        // BFS from `node`, track eccentricity and the last level.
        let mut dist = vec![usize::MAX; n];
        dist[node] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(node);
        let mut far = node;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX && !global_visited[v] {
                    dist[v] = dist[u] + 1;
                    if dist[v] > dist[far] {
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        let ecc = dist[far];
        if ecc <= last_ecc {
            return node;
        }
        last_ecc = ecc;
        node = far;
    }
    node
}

/// Computes an approximate-minimum-degree (AMD) ordering of the
/// symmetrized pattern of `a`, after Amestoy–Davis–Duff: eliminate the
/// variable of (approximately) minimum degree, replacing it by an
/// *element* in a quotient graph so the fill clique is represented
/// implicitly. External degrees are the classic upper bound
/// `|A_i| + |Lp \ i| + Σ_e |Le \ Lp|` with the `|Le \ Lp|` terms computed
/// exactly by one counting sweep per pivot. Deterministic: ties break on
/// the smallest node index.
///
/// Returns an elimination order usable as `col_order` for
/// [`crate::SparseLu::factor`]; unlike [`rcm`] it is not reversed.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn amd<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "amd: square matrix required");
    // Symmetric adjacency excluding the diagonal.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c, _) in a.iter() {
        if r != c {
            adj[r].push(c);
            adj[c].push(r);
        }
    }
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }

    // Quotient graph: eliminating pivot `p` turns it into element `p`
    // whose boundary (the future fill clique) is stored in
    // `elem_nodes[p]`; live variables track plain neighbors (`adj`) plus
    // adjacent elements (`elems`).
    let mut elem_nodes: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut alive_elem = vec![false; n];
    let mut eliminated = vec![false; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();

    let mut mark = vec![usize::MAX; n]; // boundary-membership stamp
    let mut wstamp = vec![usize::MAX; n]; // per-element |Le \ Lp| stamp
    let mut w = vec![0usize; n];

    let mut order = Vec::with_capacity(n);
    for step in 0..n {
        // Lazy heap: entries are stale once a degree is updated; pop
        // until one matches the current degree of a live node.
        let p = loop {
            // pmor-lint: allow(panic-in-lib) reason="the lazy heap retains at least one entry per live node, and a live node exists at every step"
            let Reverse((d, i)) = heap.pop().expect("heap holds every live node");
            if !eliminated[i] && d == degree[i] {
                break i;
            }
        };

        // Boundary Lp = live plain neighbors ∪ boundaries of adjacent
        // elements, minus p. Adjacent elements are absorbed into the new
        // element.
        let mut lp: Vec<usize> = Vec::new();
        mark[p] = step;
        for &i in &adj[p] {
            if !eliminated[i] && mark[i] != step {
                mark[i] = step;
                lp.push(i);
            }
        }
        for &e in &elems[p] {
            if !alive_elem[e] {
                continue;
            }
            for &i in &elem_nodes[e] {
                if !eliminated[i] && mark[i] != step {
                    mark[i] = step;
                    lp.push(i);
                }
            }
            alive_elem[e] = false;
        }
        lp.sort_unstable();

        // |Le \ Lp| for every live element touching the boundary: start
        // from the element's live size and subtract one per shared node.
        for &i in &lp {
            for &e in &elems[i] {
                if !alive_elem[e] {
                    continue;
                }
                if wstamp[e] != step {
                    wstamp[e] = step;
                    w[e] = elem_nodes[e].iter().filter(|&&j| !eliminated[j]).count();
                }
                w[e] -= 1;
            }
        }

        // Update every boundary node: drop adjacency now covered by the
        // new element, refresh element lists (absorbing `Le ⊆ Lp`
        // elements), recompute the approximate degree.
        for idx in 0..lp.len() {
            let i = lp[idx];
            adj[i].retain(|&j| !eliminated[j] && mark[j] != step);
            let mut external = 0usize; // Σ |Le \ Lp| over i's other elements
            elems[i].retain(|&e| {
                if !alive_elem[e] {
                    return false;
                }
                if wstamp[e] == step && w[e] == 0 {
                    alive_elem[e] = false;
                    return false;
                }
                external += if wstamp[e] == step {
                    w[e]
                } else {
                    elem_nodes[e].len()
                };
                true
            });
            elems[i].push(p);
            let d = adj[i].len() + (lp.len() - 1) + external;
            degree[i] = d.min(n - step - 1);
            heap.push(Reverse((degree[i], i)));
        }

        eliminated[p] = true;
        adj[p] = Vec::new();
        elems[p] = Vec::new();
        elem_nodes[p] = lp;
        alive_elem[p] = true;
        order.push(p);
    }
    order
}

/// Exact nonzero count (lower triangle, diagonal included) of the
/// Cholesky factor of the **symmetrized** pattern of `a` under `perm` —
/// the fill estimate behind [`OrderingChoice::Auto`]. Computed without
/// forming the factor, via the elimination tree and row-subtree counting
/// (`O(nnz(L))` time, `O(n)` extra memory). LU partial pivoting can
/// deviate from this count, but the *ranking* between two candidate
/// orderings is what the auto policy needs.
///
/// # Panics
///
/// Panics if `a` is not square or `perm` is not a permutation of `0..n`.
pub fn fill_estimate<T: Scalar>(a: &CsrMatrix<T>, perm: &[usize]) -> usize {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "fill_estimate: square matrix required");
    assert_eq!(perm.len(), n, "fill_estimate: permutation length");
    const NONE: usize = usize::MAX;
    let mut pos = vec![NONE; n];
    for (k, &j) in perm.iter().enumerate() {
        assert!(j < n && pos[j] == NONE, "fill_estimate: not a permutation");
        pos[j] = k;
    }
    // Strict lower-triangle adjacency in permuted positions.
    let mut lower: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c, _) in a.iter() {
        if r != c {
            let (i, j) = (pos[r], pos[c]);
            lower[i.max(j)].push(i.min(j));
        }
    }
    for list in lower.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    // Elimination tree via path-compressed ancestors.
    let mut parent = vec![NONE; n];
    let mut anc = vec![NONE; n];
    for k in 0..n {
        for &j in &lower[k] {
            let mut r = j;
            while anc[r] != NONE && anc[r] != k {
                let next = anc[r];
                anc[r] = k;
                r = next;
            }
            if anc[r] == NONE {
                anc[r] = k;
                parent[r] = k;
            }
        }
    }
    // nnz(L) = n diagonals + Σ row-subtree sizes: walk each lower
    // neighbor up the etree until hitting the row node or a node already
    // counted for this row.
    let mut row_mark = vec![NONE; n];
    let mut count = n;
    for k in 0..n {
        row_mark[k] = k;
        for &j in &lower[k] {
            let mut r = j;
            while r != NONE && r != k && row_mark[r] != k {
                row_mark[r] = k;
                count += 1;
                r = parent[r];
            }
        }
    }
    count
}

/// Bandwidth of a matrix under a permutation — a proxy for expected fill.
pub fn bandwidth_under<T: Scalar>(a: &CsrMatrix<T>, perm: &[usize]) -> usize {
    let n = a.nrows();
    let mut pos = vec![0usize; n];
    for (k, &j) in perm.iter().enumerate() {
        pos[j] = k;
    }
    let mut bw = 0usize;
    for (r, c, _) in a.iter() {
        bw = bw.max(pos[r].abs_diff(pos[c]));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    fn path_graph(n: usize) -> CsrMatrix<f64> {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.build_csr()
    }

    #[test]
    fn is_a_permutation() {
        let a = path_graph(20);
        let p = rcm(&a);
        let mut seen = vec![false; 20];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn path_graph_bandwidth_is_one() {
        let a = path_graph(50);
        let p = rcm(&a);
        assert_eq!(bandwidth_under(&a, &p), 1);
    }

    #[test]
    fn shuffled_path_graph_recovers_small_bandwidth() {
        // Relabel a path randomly; natural order has large bandwidth, RCM
        // must recover bandwidth 1.
        let n = 40;
        let relabel: Vec<usize> = (0..n).map(|i| (i * 17) % n).collect();
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(relabel[i], relabel[i], 2.0);
            if i + 1 < n {
                b.add(relabel[i], relabel[i + 1], -1.0);
                b.add(relabel[i + 1], relabel[i], -1.0);
            }
        }
        let a = b.build_csr();
        let natural: Vec<usize> = (0..n).collect();
        let p = rcm(&a);
        assert!(bandwidth_under(&a, &p) <= 2);
        assert!(bandwidth_under(&a, &natural) > 5);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        let mut b = CooBuilder::new(6, 6);
        for i in 0..6 {
            b.add(i, i, 1.0);
        }
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(4, 5, -1.0);
        b.add(5, 4, -1.0);
        let p = rcm(&b.build_csr());
        assert_eq!(p.len(), 6);
    }

    /// 2-D grid graph with shuffled labels (the case a banded ordering
    /// handles worst without relabeling).
    fn shuffled_grid(side: usize) -> CsrMatrix<f64> {
        let n = side * side;
        let relabel: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
        let mut b = CooBuilder::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let u = relabel[r * side + c];
                b.add(u, u, 4.0);
                if c + 1 < side {
                    let v = relabel[r * side + c + 1];
                    b.add(u, v, -1.0);
                    b.add(v, u, -1.0);
                }
                if r + 1 < side {
                    let v = relabel[(r + 1) * side + c];
                    b.add(u, v, -1.0);
                    b.add(v, u, -1.0);
                }
            }
        }
        b.build_csr()
    }

    fn assert_permutation(p: &[usize], n: usize) {
        assert_eq!(p.len(), n);
        let mut seen = vec![false; n];
        for &i in p {
            assert!(i < n && !seen[i], "duplicate or out-of-range {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn amd_and_rcm_are_valid_permutations() {
        for a in [
            path_graph(31),
            shuffled_grid(9),
            CsrMatrix::<f64>::identity(7), // isolated nodes
        ] {
            assert_permutation(&amd(&a), a.nrows());
            assert_permutation(&rcm(&a), a.nrows());
        }
        // Disconnected components.
        let mut b = CooBuilder::new(6, 6);
        for i in 0..6 {
            b.add(i, i, 1.0);
        }
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(4, 5, -1.0);
        b.add(5, 4, -1.0);
        assert_permutation(&amd(&b.build_csr()), 6);
    }

    #[test]
    fn amd_reduces_lu_fill_on_shuffled_grids() {
        for side in [8, 12, 16] {
            let a = shuffled_grid(side);
            let p = amd(&a);
            let lu_nat = crate::SparseLu::factor(&a, None).unwrap();
            let lu_amd = crate::SparseLu::factor(&a, Some(&p)).unwrap();
            assert!(
                lu_amd.factor_nnz() <= lu_nat.factor_nnz(),
                "side {side}: amd fill {} vs natural fill {}",
                lu_amd.factor_nnz(),
                lu_nat.factor_nnz()
            );
        }
    }

    #[test]
    fn fill_estimate_ranks_orderings_like_actual_lu_fill() {
        let a = shuffled_grid(12);
        let natural: Vec<usize> = (0..a.nrows()).collect();
        let p = amd(&a);
        let est_amd = fill_estimate(&a, &p);
        let est_nat = fill_estimate(&a, &natural);
        assert!(est_amd < est_nat, "amd {est_amd} vs natural {est_nat}");
        // The estimate is exact for symmetric patterns when pivoting
        // stays on the diagonal: L and U then mirror each other, so
        // factor_nnz = 2·est − n.
        let lu = crate::SparseLu::factor(&a, Some(&p)).unwrap();
        assert_eq!(lu.factor_nnz(), 2 * est_amd - a.nrows());
    }

    #[test]
    fn ordering_choice_parses_and_resolves() {
        assert_eq!(OrderingChoice::parse("AMD"), Some(OrderingChoice::Amd));
        assert_eq!(OrderingChoice::parse("rcm"), Some(OrderingChoice::Rcm));
        assert_eq!(OrderingChoice::parse("auto"), Some(OrderingChoice::Auto));
        assert_eq!(
            OrderingChoice::parse("natural"),
            Some(OrderingChoice::Natural)
        );
        assert_eq!(OrderingChoice::parse("bogus"), None);
        assert_eq!(OrderingChoice::default(), OrderingChoice::Rcm);

        let a = shuffled_grid(10);
        let (perm, name) = OrderingChoice::Auto.resolve(&a);
        let perm = perm.unwrap();
        assert_permutation(&perm, a.nrows());
        // Auto must report whichever candidate its estimate prefers.
        let est_rcm = fill_estimate(&a, &rcm(&a));
        let est_amd = fill_estimate(&a, &amd(&a));
        let expect = if est_amd < est_rcm { "amd" } else { "rcm" };
        assert_eq!(name, expect);
        assert_eq!(OrderingChoice::Natural.resolve(&a), (None, "natural"));
    }

    #[test]
    fn rcm_reduces_lu_fill_on_shuffled_grid() {
        // 2-D grid graph with shuffled labels: RCM ordering should not
        // increase fill relative to natural order on the shuffled matrix.
        let side = 12;
        let n = side * side;
        let relabel: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
        let mut b = CooBuilder::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let u = relabel[r * side + c];
                b.add(u, u, 4.0);
                if c + 1 < side {
                    let v = relabel[r * side + c + 1];
                    b.add(u, v, -1.0);
                    b.add(v, u, -1.0);
                }
                if r + 1 < side {
                    let v = relabel[(r + 1) * side + c];
                    b.add(u, v, -1.0);
                    b.add(v, u, -1.0);
                }
            }
        }
        let a = b.build_csr();
        let p = rcm(&a);
        let lu_nat = crate::SparseLu::factor(&a, None).unwrap();
        let lu_rcm = crate::SparseLu::factor(&a, Some(&p)).unwrap();
        assert!(
            lu_rcm.factor_nnz() <= lu_nat.factor_nnz(),
            "rcm fill {} vs natural fill {}",
            lu_rcm.factor_nnz(),
            lu_nat.factor_nnz()
        );
    }
}
