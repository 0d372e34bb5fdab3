//! Plain reference for `ordering::amd`: approximate minimum degree on a
//! quotient graph with no supervariables and no mass elimination, that
//! re-scans each touched element's live size at every pivot: exact
//! `|Le \ Lp|` terms in superlinear time. The supervariable AMD must stay
//! within a few percent of its fill.

use pmor_num::Scalar;
use pmor_sparse::CsrMatrix;

/// Elimination order of the symmetrized pattern of square `a`; ties break
/// on the smallest node index.
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
