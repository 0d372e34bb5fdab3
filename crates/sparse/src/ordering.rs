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
/// symmetrized pattern of `a`, after Amestoy, Davis & Duff (*SIAM J.
/// Matrix Anal. Appl.* 17(4), 1996). Eliminating a pivot `p` turns it into
/// an *element* of a quotient graph whose boundary `Lp` stands for the
/// fill clique, so fill is never formed. Three devices keep the work
/// near-linear:
///
/// - **Supervariables.** Boundary variables with identical adjacency
///   (same elements, same plain neighbours) are found by hashing and
///   merged into one weighted node, eliminated together.
/// - **Mass elimination.** A boundary variable whose only remaining
///   neighbour is the new element is eliminated with `p` in the same step.
/// - **Element absorption.** An element whose boundary lies inside `Lp`
///   is absorbed into the new element.
///
/// Degrees are the AMD approximate external degree
/// `min(d_i + |Lp \ i|, |A_i \ i| + |Lp \ i| + Σ_e |Le \ Lp|)`, weighted
/// by supervariable size, with each `|Le \ Lp|` from one counting sweep per
/// pivot over stored element sizes. The work is linear in the size of
/// the quotient graph: its inner-loop steps grow 4.05× from the 128×128
/// to the 256×256 mesh. Against a plain version that re-scans every
/// touched element at every pivot (`tests/support/amd_reference.rs`) it
/// is 6–10× faster on the 128×128 mesh and 15–19× on the 256×256 one.
/// Its fill is 3–9% lower on meshes and power grids, and up to 3% higher
/// on `rc_random`.
///
/// Deterministic: among the variables of least degree the one whose
/// degree was set last is taken (the degree lists are LIFO and start in
/// index order, smallest index first), and a supervariable's members are
/// ordered as they were merged.
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
    const NONE: usize = usize::MAX;

    // Variable i's quotient-graph list is `iw[pe[i]..pe[i] + len[i]]`: its
    // `elen[i]` adjacent elements, then its plain neighbours. It starts as
    // row i of the symmetrized pattern without the diagonal and never
    // outgrows that slot: a pivot joins the element part of a boundary
    // variable only where that variable loses the pivot as a neighbour or
    // an element the pivot absorbs.
    let (ap, ai) = (a.row_ptr(), a.col_indices());
    // Pattern of Aᵀ by counting: rows come out sorted. Not
    // `a.transposed()`, which drops stored zeros and would leave the
    // symmetrized graph unsymmetric.
    let mut tp = vec![0usize; n + 1];
    for &c in ai {
        tp[c + 1] += 1;
    }
    for c in 0..n {
        tp[c + 1] += tp[c];
    }
    let mut ti = vec![0usize; ai.len()];
    let mut next = tp.clone();
    for r in 0..n {
        for &c in &ai[ap[r]..ap[r + 1]] {
            ti[next[c]] = r;
            next[c] += 1;
        }
    }
    let mut pe = Vec::with_capacity(n);
    let mut iw: Vec<usize> = Vec::with_capacity(2 * ai.len());
    let mut len = Vec::with_capacity(n);
    for r in 0..n {
        pe.push(iw.len());
        let (x, y) = (&ai[ap[r]..ap[r + 1]], &ti[tp[r]..tp[r + 1]]);
        let (mut s, mut t, mut last) = (0, 0, NONE);
        while s < x.len() || t < y.len() {
            let c = if t == y.len() || (s < x.len() && x[s] <= y[t]) {
                s += 1;
                x[s - 1]
            } else {
                t += 1;
                y[t - 1]
            };
            if c != r && c != last {
                iw.push(c);
                last = c;
            }
        }
        len.push(iw.len() - pe[r]);
    }
    let mut elen = vec![0usize; n];

    // Every index is a principal variable, a live element, or gone (an
    // absorbed element, or a variable merged or eliminated away).
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Node {
        Var,
        Element,
        Gone,
    }
    let mut node = vec![Node::Var; n];
    // Supervariable weight, and its members as a chain from the principal.
    let mut nv = vec![1usize; n];
    let mut next_member = vec![NONE; n];
    let mut last_member: Vec<usize> = (0..n).collect();
    // Element e's variables are `enodes[estart[e]..estart[e] + ecount[e]]`
    // (principal when the element formed; later entries may be gone), and
    // `esize[e]` is its current weighted size |Le|.
    let mut enodes: Vec<usize> = Vec::new();
    let mut estart = vec![0usize; n];
    let mut ecount = vec![0usize; n];
    let mut esize = vec![0usize; n];

    let mut degree = len.clone();
    let mut lists = DegreeLists::new(n);
    for i in (0..n).rev() {
        lists.insert(i, degree[i]);
    }

    let mut mark = vec![NONE; n]; // `Lp` membership, stamped per pivot
    let mut wstamp = vec![NONE; n]; // per-element |Le \ Lp| stamp
    let mut w = vec![0usize; n];
    let mut same = vec![NONE; n]; // supervariable comparison stamp
    let mut same_stamp = 0usize;
    let mut hash = vec![0usize; n];
    let mut lp: Vec<usize> = Vec::new();

    let mut order = Vec::with_capacity(n);
    let mut step = 0usize;
    while order.len() < n {
        // Every principal variable outside the boundary being updated sits
        // in its degree's list, and one exists until every node is ordered.
        let p = lists.pop_min();
        step += 1;

        // Boundary Lp: the variables of p's elements (absorbed into the
        // new element) and p's plain neighbours.
        lp.clear();
        mark[p] = step;
        let (p0, pe_end, p_end) = (pe[p], pe[p] + elen[p], pe[p] + len[p]);
        for &e in &iw[p0..pe_end] {
            if node[e] != Node::Element {
                continue;
            }
            for &i in &enodes[estart[e]..estart[e] + ecount[e]] {
                if node[i] == Node::Var && mark[i] != step {
                    mark[i] = step;
                    lists.remove(i, degree[i]);
                    lp.push(i);
                }
            }
            node[e] = Node::Gone;
        }
        for &i in &iw[pe_end..p_end] {
            if node[i] == Node::Var && mark[i] != step {
                mark[i] = step;
                lists.remove(i, degree[i]);
                lp.push(i);
            }
        }
        (len[p], elen[p]) = (0, 0);
        let mut member = p;
        while member != NONE {
            order.push(member);
            member = next_member[member];
        }
        node[p] = Node::Element;

        // |Le \ Lp| for every live element touching the boundary: its
        // weighted size minus the weight of its boundary variables.
        for &i in &lp {
            for &e in &iw[pe[i]..pe[i] + elen[i]] {
                if node[e] == Node::Element {
                    if wstamp[e] != step {
                        wstamp[e] = step;
                        w[e] = esize[e];
                    }
                    w[e] -= nv[i];
                }
            }
        }

        // Compact each boundary variable's list in place: absorb elements
        // inside Lp, drop neighbours now covered by p. Mass-eliminate
        // variables left adjacent to p alone, and hash the rest for
        // supervariable detection.
        let mut degme = 0;
        let mut kept = 0;
        for t in 0..lp.len() {
            let i = lp[t];
            let (start, e_end, end) = (pe[i], pe[i] + elen[i], pe[i] + len[i]);
            let (mut ext, mut h, mut wpos) = (0usize, 0usize, start);
            for idx in start..e_end {
                let e = iw[idx];
                if node[e] != Node::Element {
                    continue;
                }
                if w[e] == 0 {
                    node[e] = Node::Gone;
                    continue;
                }
                ext += w[e];
                h = h.wrapping_add(e);
                iw[wpos] = e;
                wpos += 1;
            }
            let first_adj = wpos;
            for idx in e_end..end {
                let j = iw[idx];
                if node[j] == Node::Var && mark[j] != step {
                    ext += nv[j];
                    h = h.wrapping_add(j);
                    iw[wpos] = j;
                    wpos += 1;
                }
            }
            if ext == 0 {
                let mut member = i;
                while member != NONE {
                    order.push(member);
                    member = next_member[member];
                }
                node[i] = Node::Gone;
                (len[i], elen[i]) = (0, 0);
                continue;
            }
            // Put p first: the freed slot at `wpos` takes the first
            // neighbour, whose place takes the first element.
            debug_assert!(wpos < end, "a boundary list always frees a slot");
            iw[wpos] = iw[first_adj];
            iw[first_adj] = iw[start];
            iw[start] = p;
            elen[i] = first_adj - start + 1;
            len[i] = wpos - start + 1;
            degree[i] = degree[i].min(ext);
            hash[i] = h;
            degme += nv[i];
            lp[kept] = i;
            kept += 1;
        }
        lp.truncate(kept);

        // Merge indistinguishable boundary variables: equal hash, then
        // equal element and neighbour sets.
        lp.sort_unstable_by_key(|&i| (hash[i], i));
        for (ia, &a) in lp.iter().enumerate() {
            if node[a] != Node::Var {
                continue;
            }
            same_stamp += 1;
            for &x in &iw[pe[a]..pe[a] + len[a]] {
                same[x] = same_stamp;
            }
            for &b in lp[ia + 1..].iter().take_while(|&&b| hash[b] == hash[a]) {
                if node[b] == Node::Var
                    && len[b] == len[a]
                    && elen[b] == elen[a]
                    && iw[pe[b]..pe[b] + len[b]]
                        .iter()
                        .all(|&x| same[x] == same_stamp)
                {
                    nv[a] += nv[b];
                    nv[b] = 0;
                    node[b] = Node::Gone;
                    (len[b], elen[b]) = (0, 0);
                    next_member[last_member[a]] = b;
                    last_member[a] = last_member[b];
                }
            }
        }
        lp.retain(|&i| node[i] == Node::Var);

        // Approximate external degrees of the surviving boundary.
        let nleft = n - order.len();
        for &i in &lp {
            degree[i] = (degree[i] + degme - nv[i]).min(nleft - nv[i]);
            lists.insert(i, degree[i]);
        }
        lp.sort_unstable();
        estart[p] = enodes.len();
        ecount[p] = lp.len();
        enodes.extend_from_slice(&lp);
        esize[p] = degme;
    }
    order
}

/// [`amd`]'s degree lists: one doubly linked list of variables per
/// degree, so taking a minimum-degree variable and moving a variable
/// between degrees cost O(1) apart from the scan up from the last minimum.
struct DegreeLists {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    min: usize,
}

impl DegreeLists {
    const NONE: usize = usize::MAX;

    fn new(n: usize) -> Self {
        DegreeLists {
            head: vec![Self::NONE; n],
            next: vec![Self::NONE; n],
            prev: vec![Self::NONE; n],
            min: 0,
        }
    }

    fn insert(&mut self, i: usize, d: usize) {
        let h = self.head[d];
        self.next[i] = h;
        self.prev[i] = Self::NONE;
        if h != Self::NONE {
            self.prev[h] = i;
        }
        self.head[d] = i;
        self.min = self.min.min(d);
    }

    fn remove(&mut self, i: usize, d: usize) {
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == Self::NONE {
            self.head[d] = nx;
        } else {
            self.next[p] = nx;
        }
        if nx != Self::NONE {
            self.prev[nx] = p;
        }
    }

    /// Removes and returns the most recently inserted variable of least
    /// degree. Panics when every list is empty.
    fn pop_min(&mut self) -> usize {
        while self.head[self.min] == Self::NONE {
            self.min += 1;
        }
        let i = self.head[self.min];
        self.remove(i, self.min);
        i
    }
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
