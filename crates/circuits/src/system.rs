//! The parametric descriptor system produced by MNA assembly.

use pmor_num::Matrix;
use pmor_sparse::CsrMatrix;

/// The paper's parametric MNA model (Eq. (1)/(5)):
///
/// ```text
/// C(p) dx/dt = -G(p) x + B u,      y = Lᵀ x
/// G(p) = G0 + Σᵢ pᵢ Gᵢ,            C(p) = C0 + Σᵢ pᵢ Cᵢ
/// ```
///
/// In the paper's notation this is the `n_p`-parameter system
/// `{G0, C0, G1, C1, …, G_np, C_np, B, L}`.
#[derive(Debug, Clone)]
pub struct ParametricSystem {
    /// Nominal conductance matrix `G0` (n × n).
    pub g0: CsrMatrix<f64>,
    /// Nominal capacitance/storage matrix `C0` (n × n).
    pub c0: CsrMatrix<f64>,
    /// Conductance sensitivity matrices `Gᵢ`, one per parameter.
    pub gi: Vec<CsrMatrix<f64>>,
    /// Storage sensitivity matrices `Cᵢ`, one per parameter.
    pub ci: Vec<CsrMatrix<f64>>,
    /// Input map `B` (n × m).
    pub b: Matrix<f64>,
    /// Output map `L` (n × q); outputs are `y = Lᵀ x`.
    pub l: Matrix<f64>,
}

impl ParametricSystem {
    /// State dimension `n`.
    pub fn dim(&self) -> usize {
        self.g0.nrows()
    }

    /// Number of variational parameters `n_p`.
    pub fn num_params(&self) -> usize {
        self.gi.len()
    }

    /// Number of inputs `m`.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of outputs `q`.
    pub fn num_outputs(&self) -> usize {
        self.l.ncols()
    }

    /// Assembles `G(p) = G0 + Σ pᵢ Gᵢ` at a parameter point.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn g_at(&self, p: &[f64]) -> CsrMatrix<f64> {
        assert_eq!(p.len(), self.num_params(), "g_at: parameter count");
        let mut g = self.g0.clone();
        for (pi, gi) in p.iter().zip(self.gi.iter()) {
            if *pi != 0.0 {
                g = g.add_scaled(*pi, gi);
            }
        }
        g
    }

    /// Assembles `C(p) = C0 + Σ pᵢ Cᵢ` at a parameter point.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn c_at(&self, p: &[f64]) -> CsrMatrix<f64> {
        assert_eq!(p.len(), self.num_params(), "c_at: parameter count");
        let mut c = self.c0.clone();
        for (pi, ci) in p.iter().zip(self.ci.iter()) {
            if *pi != 0.0 {
                c = c.add_scaled(*pi, ci);
            }
        }
        c
    }

    /// `true` when inputs and outputs coincide (`B == L`), the immittance
    /// form under which congruence reduction preserves passivity.
    pub fn has_symmetric_ports(&self) -> bool {
        self.b == self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_sparse::CooBuilder;

    fn tiny() -> ParametricSystem {
        let mut g0 = CooBuilder::new(2, 2);
        g0.stamp_pair(Some(0), Some(1), 1.0);
        g0.stamp_pair(Some(0), None, 1.0);
        let mut c0 = CooBuilder::new(2, 2);
        c0.stamp_pair(Some(1), None, 1.0);
        let mut g1 = CooBuilder::new(2, 2);
        g1.stamp_pair(Some(0), Some(1), 0.5);
        let c1 = CooBuilder::new(2, 2);
        let mut b = Matrix::zeros(2, 1);
        b[(0, 0)] = 1.0;
        ParametricSystem {
            g0: g0.build_csr(),
            c0: c0.build_csr(),
            gi: vec![g1.build_csr()],
            ci: vec![c1.build_csr()],
            b: b.clone(),
            l: b,
        }
    }

    #[test]
    fn dims() {
        let s = tiny();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.num_params(), 1);
        assert_eq!(s.num_inputs(), 1);
        assert_eq!(s.num_outputs(), 1);
        assert!(s.has_symmetric_ports());
    }

    #[test]
    fn assembly_is_affine() {
        let s = tiny();
        let g = s.g_at(&[0.4]);
        // G(0.4)[0][0] = (1 + 1) + 0.4*0.5 = 2.2
        assert!((g.get(0, 0) - 2.2).abs() < 1e-15);
        assert!((g.get(0, 1) + 1.2).abs() < 1e-15);
        let c = s.c_at(&[0.4]);
        assert_eq!(c.get(1, 1), 1.0);
    }
}
