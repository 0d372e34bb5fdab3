//! Parametric reduced-order models.
//!
//! A [`ParametricRom`] carries the congruence-reduced system matrices
//! `{G̃0, C̃0, G̃ᵢ, C̃ᵢ, B̃, L̃}` (Algorithm 1 step 4 / Eq. (2)) and offers the
//! evaluations the paper's experiments need: transfer functions `H(s, p)`,
//! frequency sweeps, dominant poles and passivity checks.
//!
//! # Serialization
//!
//! ROMs persist to disk through [`save`]/[`load`] (or the
//! [`ParametricRom::save`]/[`ParametricRom::load`] conveniences): a small
//! versioned binary format that stores every `f64` by its exact bit
//! pattern, so a reloaded model is **bitwise identical** — `transfer()`
//! at any `(p, s)` returns bit-for-bit the same values as the original.
//! A checksum over the payload rejects corrupted files, and unknown
//! format versions are refused instead of misread. This is what lets a
//! `pmor reduce` run persist its result for later `pmor eval` / `pmor mc`
//! runs (see the `pmor-cli` crate) without re-reducing.

use crate::engine::{batch_results, EvalPoint, EvalWorkspace, TransferModel};
use crate::reduce::fnv1a_bytes;
use crate::{PmorError, Result};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::{LuFactors, PencilLdl, PencilLu};
use pmor_num::{eig, Complex64, Matrix};
use std::path::Path;

/// A reduced-order parametric descriptor model
/// `C̃(p) dx̃/dt = -G̃(p) x̃ + B̃ u`, `y = L̃ᵀ x̃`.
#[derive(Debug, Clone)]
pub struct ParametricRom {
    /// Reduced nominal conductance `G̃0`.
    pub g0: Matrix<f64>,
    /// Reduced nominal storage `C̃0`.
    pub c0: Matrix<f64>,
    /// Reduced conductance sensitivities `G̃ᵢ`.
    pub gi: Vec<Matrix<f64>>,
    /// Reduced storage sensitivities `C̃ᵢ`.
    pub ci: Vec<Matrix<f64>>,
    /// Reduced input map `B̃`.
    pub b: Matrix<f64>,
    /// Reduced output map `L̃`.
    pub l: Matrix<f64>,
    /// Dimension of the full system the model was reduced from. The
    /// `n × q` basis itself is not kept: nothing evaluates through it
    /// once congruence has run (the reducers' `projection` methods return
    /// it when a caller needs to lift reduced states).
    pub full_dim: usize,
}

impl ParametricRom {
    /// Reduces a full parametric system by congruence with the projection
    /// `v`: every matrix, including all sensitivities, maps through
    /// `M̃ = VᵀMV` (paper Eq. (2) and Algorithm 1 step 4). `v` is only
    /// borrowed; the model keeps its row count as [`ParametricRom::full_dim`].
    ///
    /// # Panics
    ///
    /// Panics if `v.nrows() != sys.dim()`.
    pub fn by_congruence(sys: &ParametricSystem, v: &Matrix<f64>) -> ParametricRom {
        assert_eq!(v.nrows(), sys.dim(), "projection row dimension mismatch");
        ParametricRom {
            g0: sys.g0.congruence(v, v),
            c0: sys.c0.congruence(v, v),
            gi: sys.gi.iter().map(|m| m.congruence(v, v)).collect(),
            ci: sys.ci.iter().map(|m| m.congruence(v, v)).collect(),
            b: v.tr_mul_mat(&sys.b),
            l: v.tr_mul_mat(&sys.l),
            full_dim: v.nrows(),
        }
    }

    /// Reduced state dimension (the paper's "model size"/"number of
    /// states").
    pub fn size(&self) -> usize {
        self.g0.nrows()
    }

    /// Number of variational parameters.
    pub fn num_params(&self) -> usize {
        self.gi.len()
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.l.ncols()
    }

    /// Assembles `G̃(p) = G̃0 + Σ pᵢ G̃ᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn g_at(&self, p: &[f64]) -> Matrix<f64> {
        let mut g = Matrix::zeros(0, 0);
        self.g_at_into(p, &mut g);
        g
    }

    /// [`ParametricRom::g_at`] assembling into a caller-owned buffer
    /// (resized on first use, reused after) — the allocation-free path
    /// batch evaluation runs on.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn g_at_into(&self, p: &[f64], out: &mut Matrix<f64>) {
        assert_eq!(p.len(), self.num_params(), "g_at: parameter count");
        assemble_affine_into(&self.g0, &self.gi, p, out);
    }

    /// Assembles `C̃(p) = C̃0 + Σ pᵢ C̃ᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn c_at(&self, p: &[f64]) -> Matrix<f64> {
        let mut c = Matrix::zeros(0, 0);
        self.c_at_into(p, &mut c);
        c
    }

    /// [`ParametricRom::c_at`] assembling into a caller-owned buffer
    /// (resized on first use, reused after).
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_params()`.
    pub fn c_at_into(&self, p: &[f64], out: &mut Matrix<f64>) {
        assert_eq!(p.len(), self.num_params(), "c_at: parameter count");
        assemble_affine_into(&self.c0, &self.ci, p, out);
    }

    /// Evaluates the transfer matrix `H(s, p) = L̃ᵀ (G̃(p) + s C̃(p))⁻¹ B̃`
    /// (`num_outputs × num_inputs`): [`ParametricRom::transfer_with`] on a
    /// fresh workspace.
    ///
    /// # Errors
    ///
    /// Fails when `p` or `s` is not finite, or when `G̃(p) + s C̃(p)` is
    /// singular (i.e. `s` is a pole).
    pub fn transfer(&self, p: &[f64], s: Complex64) -> Result<Matrix<Complex64>> {
        self.transfer_with(p, s, &mut EvalWorkspace::new())
    }

    /// [`ParametricRom::transfer`] drawing every buffer from a reusable
    /// [`EvalWorkspace`]: `G̃(p)` and `C̃(p)` are assembled in place, and
    /// the pencil is built and factored in place by a split-plane kernel
    /// that reads `B̃` and `L̃` as real matrices. The only allocation per
    /// call is the returned matrix.
    ///
    /// The kernel depends only on the assembled matrices and `s`. When
    /// `G̃(p)` and `C̃(p)` both equal their transposes bit for bit (RC
    /// models reduced by congruence), the pencil is complex symmetric and
    /// [`PencilLdl`] factors it without pivoting, at half the elimination
    /// work, keeping its factors only when its backward-error certificate
    /// holds and otherwise falling back to [`PencilLu`] on the same
    /// pencil. Every other pencil runs on [`PencilLu`], whose values are
    /// bitwise those of [`LuFactors::<Complex64>`] on the complex pencil.
    ///
    /// # Errors
    ///
    /// Returns [`PmorError::NonFinite`] when `p` or `s` holds a NaN or an
    /// infinity, and fails when `G̃(p) + s C̃(p)` is singular (i.e. `s` is
    /// a pole).
    pub fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> Result<Matrix<Complex64>> {
        self.assemble(p, ws)?;
        self.solve_at(s, ws)
    }

    /// Assembles `G̃(p)` and `C̃(p)` into the workspace and records whether
    /// both are bitwise symmetric — the per-`p` half of an evaluation,
    /// which a batch skips while consecutive points share `p`.
    pub(crate) fn assemble(&self, p: &[f64], ws: &mut EvalWorkspace) -> Result<()> {
        if !all_finite(p) {
            return Err(PmorError::NonFinite("p"));
        }
        self.g_at_into(p, &mut ws.rom_g);
        self.c_at_into(p, &mut ws.rom_c);
        ws.rom_symmetric = ws.rom_g.is_bitwise_symmetric() && ws.rom_c.is_bitwise_symmetric();
        Ok(())
    }

    /// Factors `G̃(p) + s C̃(p)` from the workspace's last assembly and
    /// solves it for `B̃`, on [`PencilLdl`] for a symmetric pencil and on
    /// [`PencilLu`] otherwise; returns the kernel holding the solution.
    pub(crate) fn solve_pencil<'w>(
        &self,
        s: Complex64,
        ws: &'w mut EvalWorkspace,
    ) -> Result<Solved<'w>> {
        if !all_finite(&[s.re, s.im]) {
            return Err(PmorError::NonFinite("s"));
        }
        if ws.rom_symmetric {
            let ldl = &mut ws.rom_ldl;
            ldl.factor_pencil_into(&ws.rom_g, &ws.rom_c, s)?;
            ldl.solve_real_into(&self.b)?;
            Ok(Solved::Ldl(ldl))
        } else {
            let lu = &mut ws.rom_lu;
            lu.factor_pencil_into(&ws.rom_g, &ws.rom_c, s)?;
            lu.solve_real_into(&self.b)?;
            Ok(Solved::Lu(lu))
        }
    }

    /// Returns `L̃ᵀ (G̃(p) + s C̃(p))⁻¹ B̃` from the workspace's last
    /// assembly — the per-frequency half.
    fn solve_at(&self, s: Complex64, ws: &mut EvalWorkspace) -> Result<Matrix<Complex64>> {
        let solved = self.solve_pencil(s, ws)?;
        let mut h = Matrix::zeros(self.l.ncols(), self.b.ncols());
        solved.project_into(&self.l, &mut h)?;
        Ok(h)
    }

    /// Evaluates `|H|` over a frequency sweep, returning one transfer matrix
    /// per frequency (`s = j·2πf`).
    ///
    /// # Errors
    ///
    /// Propagates [`ParametricRom::transfer`] errors.
    pub fn frequency_response(
        &self,
        p: &[f64],
        freqs_hz: &[f64],
    ) -> Result<Vec<Matrix<Complex64>>> {
        freqs_hz
            .iter()
            .map(|&f| self.transfer(p, Complex64::jw(2.0 * std::f64::consts::PI * f)))
            .collect()
    }

    /// All finite poles of the reduced pencil `(G̃(p), C̃(p))`: the values
    /// `λ` with `det(G̃ + λC̃) = 0`, computed via `λ = -1/μ` for eigenvalues
    /// `μ` of `G̃⁻¹C̃` (infinite poles, `μ ≈ 0`, are dropped). Sorted by
    /// increasing magnitude, i.e. most dominant first.
    ///
    /// # Errors
    ///
    /// Fails when `G̃(p)` is singular or the eigensolver stalls.
    pub fn poles(&self, p: &[f64]) -> Result<Vec<Complex64>> {
        let g = self.g_at(p);
        let c = self.c_at(p);
        pencil_poles(&g, &c)
    }

    /// The `count` most dominant (smallest-magnitude) finite poles.
    ///
    /// # Errors
    ///
    /// Propagates [`ParametricRom::poles`] errors.
    pub fn dominant_poles(&self, p: &[f64], count: usize) -> Result<Vec<Complex64>> {
        let mut poles = self.poles(p)?;
        poles.truncate(count);
        Ok(poles)
    }

    /// Verifies the algebraic passivity stamp at the parameter point `p`:
    /// `G̃(p) + G̃(p)ᵀ ⪰ 0`, `C̃(p) = C̃(p)ᵀ ⪰ 0` and `B̃ = L̃` — the
    /// conditions under which the reduced model is provably passive
    /// (paper §4.1).
    ///
    /// # Errors
    ///
    /// Fails when the symmetric eigensolver stalls.
    pub fn is_passive_stamp(&self, p: &[f64]) -> Result<bool> {
        if !self
            .b
            .approx_eq(&self.l, 1e-12 * self.b.max_abs().max(1e-300))
        {
            return Ok(false);
        }
        let g = self.g_at(p);
        let gsym = g.add_mat(&g.transposed());
        if !eig::is_positive_semidefinite(&gsym, 1e-9)? {
            return Ok(false);
        }
        let c = self.c_at(p);
        if c.symmetry_defect() > 1e-9 * c.max_abs().max(1e-300) {
            return Ok(false);
        }
        Ok(eig::is_positive_semidefinite(&c, 1e-9)?)
    }

    /// The first `k` block transfer-function moments at the nominal point:
    /// `mⱼ = L̃ᵀ (-G̃⁻¹C̃)ʲ G̃⁻¹ B̃` for `j = 0..k`.
    ///
    /// # Errors
    ///
    /// Fails when `G̃0` is singular.
    pub fn nominal_transfer_moments(&self, k: usize) -> Result<Vec<Matrix<f64>>> {
        let lu = LuFactors::factor(&self.g0)?;
        let mut x = lu.solve_mat(&self.b)?;
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            out.push(self.l.tr_mul_mat(&x));
            let cx = self.c0.mul_mat(&x);
            x = lu.solve_mat(&cx)?.scaled(-1.0);
        }
        Ok(out)
    }
}

impl TransferModel for ParametricRom {
    fn kind(&self) -> &'static str {
        "rom"
    }

    fn dim(&self) -> usize {
        self.size()
    }

    fn num_params(&self) -> usize {
        ParametricRom::num_params(self)
    }

    fn num_inputs(&self) -> usize {
        ParametricRom::num_inputs(self)
    }

    fn num_outputs(&self) -> usize {
        ParametricRom::num_outputs(self)
    }

    fn transient(
        &self,
        p: &[f64],
        stimuli: &[crate::transient::Stimulus],
        opts: &crate::transient::TransientOptions,
        ws: &mut EvalWorkspace,
    ) -> Result<crate::transient::TransientResult> {
        crate::transient::simulate_rom_with(self, p, stimuli, opts, ws)
    }

    fn transfer(&self, p: &[f64], s: Complex64) -> Result<Matrix<Complex64>> {
        ParametricRom::transfer(self, p, s)
    }

    fn dominant_poles(&self, p: &[f64], count: usize) -> Result<Vec<Complex64>> {
        ParametricRom::dominant_poles(self, p, count)
    }

    fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> Result<Matrix<Complex64>> {
        ParametricRom::transfer_with(self, p, s, ws)
    }

    /// Assembles `G̃(p)`, `C̃(p)` once per run of consecutive points whose
    /// `p` has the same bits (a frequency sweep), then factors and solves
    /// per point. Each result is bitwise what `transfer_with` returns.
    fn eval_batch(
        &self,
        points: &[EvalPoint],
        ws: &mut EvalWorkspace,
    ) -> Result<Vec<Matrix<Complex64>>> {
        let mut assembled: Option<&[f64]> = None;
        let mut out = batch_results(points);
        for pt in points {
            if !assembled.is_some_and(|q| same_bits(q, &pt.params)) {
                self.assemble(&pt.params, ws)?;
                assembled = Some(&pt.params);
            }
            out.push(self.solve_at(pt.s, ws)?);
        }
        Ok(out)
    }
}

/// The pencil kernel holding a [`ParametricRom`] solve.
pub(crate) enum Solved<'w> {
    Ldl(&'w PencilLdl),
    Lu(&'w PencilLu),
}

impl Solved<'_> {
    /// `out = L̃ᵀ X` (see [`PencilLu::project_into`]).
    fn project_into(&self, l: &Matrix<f64>, out: &mut Matrix<Complex64>) -> Result<()> {
        match self {
            Solved::Ldl(k) => k.project_into(l, out)?,
            Solved::Lu(k) => k.project_into(l, out)?,
        }
        Ok(())
    }

    /// The solution `X = (G̃(p) + s C̃(p))⁻¹ B̃`.
    pub(crate) fn solution(&self) -> Matrix<Complex64> {
        match self {
            Solved::Ldl(k) => k.solution(),
            Solved::Lu(k) => k.solution(),
        }
    }
}

/// Whether every value is finite (no NaN, no infinity).
fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Whether two parameter points have identical bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Assembles `M0 + Σ pᵢ Mᵢ` into `out`, resizing only when the buffer
/// has the wrong shape (the workspace-reuse backbone of `g_at`/`c_at`).
fn assemble_affine_into(
    base: &Matrix<f64>,
    terms: &[Matrix<f64>],
    p: &[f64],
    out: &mut Matrix<f64>,
) {
    if out.nrows() != base.nrows() || out.ncols() != base.ncols() {
        // pmor-lint: allow(alloc-in-kernel) reason="clones only on first use or shape change; steady state copies into the existing buffer in place"
        *out = base.clone();
    } else {
        out.as_mut_slice().copy_from_slice(base.as_slice());
    }
    for (pi, m) in p.iter().zip(terms.iter()) {
        if *pi != 0.0 {
            out.add_assign_scaled(*pi, m);
        }
    }
}

/// Finite poles of a dense pencil `(G, C)` via `μ`-eigenvalues of `G⁻¹C`
/// (shared by reduced models and small full models).
///
/// # Errors
///
/// Fails when `G` is singular or the eigensolver stalls.
pub fn pencil_poles(g: &Matrix<f64>, c: &Matrix<f64>) -> Result<Vec<Complex64>> {
    if g.nrows() != c.nrows() || g.ncols() != c.ncols() {
        return Err(PmorError::Invalid(
            "pencil_poles: G and C dimensions differ".into(),
        ));
    }
    let lu = LuFactors::factor(g)?;
    let t = lu.solve_mat(c)?;
    let mus = eig::eigenvalues(&t)?;
    // μ spectra of descriptor pencils contain near-zero values for the
    // infinite poles; drop them relative to the largest μ.
    let mu_max = mus.iter().map(|m| m.abs()).fold(0.0, f64::max);
    if mu_max == 0.0 {
        return Ok(Vec::new());
    }
    let mut poles: Vec<Complex64> = mus
        .into_iter()
        .filter(|m| m.abs() > 1e-12 * mu_max)
        .map(|m| -m.recip())
        .collect();
    poles.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
    Ok(poles)
}

// --- Serialization ---------------------------------------------------------

/// Magic bytes opening every serialized ROM file.
pub const ROM_MAGIC: [u8; 8] = *b"PMORROM\n";

/// Current ROM format version. Readers refuse any other version, naming
/// it in the error. Version 1 also stored the `n × q` projection after
/// `L̃`; it has no decoder.
pub const ROM_FORMAT_VERSION: u32 = 2;

/// Serializes `rom` into the versioned binary ROM format.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic     8 B   b"PMORROM\n"
/// version   4 B   u32, ROM_FORMAT_VERSION
/// payload         5×u64 header (size, full dim, #params, #inputs, #outputs)
///                 then each matrix as nrows:u64, ncols:u64, row-major
///                 f64 bit patterns as u64 — order: G̃0, C̃0, G̃ᵢ…, C̃ᵢ…, B̃,
///                 L̃
/// checksum  8 B   FNV-1a over the payload bytes
/// ```
///
/// A file's length is therefore `12 + 40 + Σ(16 + 8·rows·cols) + 8` over
/// the stored matrices: it depends on the reduced size, the parameter
/// count and the ports, never on the full dimension.
///
/// Floats travel as exact bit patterns, so deserializing reproduces the
/// model bit-for-bit (see [`load`]).
pub fn to_bytes(rom: &ParametricRom) -> Vec<u8> {
    let mut payload = Vec::new();
    let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    push_u64(&mut payload, rom.size() as u64);
    push_u64(&mut payload, rom.full_dim as u64);
    push_u64(&mut payload, rom.num_params() as u64);
    push_u64(&mut payload, rom.num_inputs() as u64);
    push_u64(&mut payload, rom.num_outputs() as u64);
    let push_mat = |out: &mut Vec<u8>, m: &Matrix<f64>| {
        push_u64(out, m.nrows() as u64);
        push_u64(out, m.ncols() as u64);
        for r in 0..m.nrows() {
            for c in 0..m.ncols() {
                push_u64(out, m[(r, c)].to_bits());
            }
        }
    };
    push_mat(&mut payload, &rom.g0);
    push_mat(&mut payload, &rom.c0);
    for m in &rom.gi {
        push_mat(&mut payload, m);
    }
    for m in &rom.ci {
        push_mat(&mut payload, m);
    }
    push_mat(&mut payload, &rom.b);
    push_mat(&mut payload, &rom.l);

    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&ROM_MAGIC);
    out.extend_from_slice(&ROM_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a_bytes(&payload).to_le_bytes());
    out
}

/// The format version a `.rom` file's header declares, or `None` when
/// the bytes do not start with [`ROM_MAGIC`] and a version word. Lets a
/// front end name an old file's version before [`from_bytes`] refuses it.
pub fn format_version(bytes: &[u8]) -> Option<u32> {
    let word = bytes.strip_prefix(&ROM_MAGIC)?.get(..4)?;
    Some(u32::from_le_bytes([word[0], word[1], word[2], word[3]]))
}

/// Deserializes a ROM written by [`to_bytes`].
///
/// # Errors
///
/// Rejects files with a wrong magic, an unsupported format version
/// (version 1 included), a checksum mismatch (corruption), truncation, a
/// parameter count the payload cannot hold, a full dimension below the
/// reduced size, or inconsistent matrix dimensions.
pub fn from_bytes(bytes: &[u8]) -> Result<ParametricRom> {
    let err = |msg: &str| PmorError::Invalid(format!("ROM deserialization: {msg}"));
    if bytes.len() < ROM_MAGIC.len() + 4 + 8 {
        return Err(err("file too short"));
    }
    if bytes[..8] != ROM_MAGIC {
        return Err(err("not a pmor ROM file (bad magic)"));
    }
    let version = format_version(bytes).unwrap_or(0);
    if version != ROM_FORMAT_VERSION {
        return Err(err(&format!(
            "unsupported format version {version} (this build reads version {ROM_FORMAT_VERSION})"
        )));
    }
    let payload = &bytes[12..bytes.len() - 8];
    // pmor-lint: allow(panic-in-lib) reason="the slice range is exactly 8 bytes by construction, so the array conversion cannot fail"
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a_bytes(payload) != stored_sum {
        return Err(err("checksum mismatch (corrupted file)"));
    }

    let mut cursor = 0usize;
    let mut next_u64 = |payload: &[u8]| -> Result<u64> {
        let end = cursor
            .checked_add(8)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| err("truncated payload"))?;
        // pmor-lint: allow(panic-in-lib) reason="the slice range is exactly 8 bytes by construction, so the array conversion cannot fail"
        let v = u64::from_le_bytes(payload[cursor..end].try_into().unwrap());
        cursor = end;
        Ok(v)
    };
    let as_dim = |v: u64| -> Result<usize> {
        // A dimension beyond ~16M rows would mean a multi-terabyte dense
        // payload; anything larger is a corrupt header that survived the
        // checksum of a truncated write.
        if v > (1 << 24) {
            Err(err(&format!("implausible dimension {v}")))
        } else {
            Ok(v as usize)
        }
    };
    let size = as_dim(next_u64(payload)?)?;
    let full_dim = as_dim(next_u64(payload)?)?;
    if full_dim < size {
        return Err(err(&format!(
            "full dimension {full_dim} is below the reduced size {size}"
        )));
    }
    let np = param_count(as_dim(next_u64(payload)?)?, payload.len())?;
    let ni = as_dim(next_u64(payload)?)?;
    let no = as_dim(next_u64(payload)?)?;
    let mut read_mat = |payload: &[u8], want_r: usize, want_c: usize| -> Result<Matrix<f64>> {
        let end = cursor
            .checked_add(16)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| err("truncated payload"))?;
        let nr = as_dim(u64::from_le_bytes(
            // pmor-lint: allow(panic-in-lib) reason="the slice range is exactly 8 bytes by construction, so the array conversion cannot fail"
            payload[cursor..cursor + 8].try_into().unwrap(),
        ))?;
        let nc = as_dim(u64::from_le_bytes(
            // pmor-lint: allow(panic-in-lib) reason="the slice range is exactly 8 bytes by construction, so the array conversion cannot fail"
            payload[cursor + 8..end].try_into().unwrap(),
        ))?;
        cursor = end;
        if nr != want_r || nc != want_c {
            return Err(err(&format!(
                "matrix dimension mismatch: stored {nr}×{nc}, header implies {want_r}×{want_c}"
            )));
        }
        let n = nr
            .checked_mul(nc)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| err("matrix size overflow"))?;
        let data_end = cursor
            .checked_add(n)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| err("truncated payload"))?;
        let mut m = Matrix::zeros(nr, nc);
        for r in 0..nr {
            for c in 0..nc {
                let at = cursor + 8 * (r * nc + c);
                m[(r, c)] =
                    // pmor-lint: allow(panic-in-lib) reason="the slice range is exactly 8 bytes by construction, so the array conversion cannot fail"
                    f64::from_bits(u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()));
            }
        }
        cursor = data_end;
        Ok(m)
    };
    let g0 = read_mat(payload, size, size)?;
    let c0 = read_mat(payload, size, size)?;
    let mut gi = Vec::with_capacity(np);
    for _ in 0..np {
        gi.push(read_mat(payload, size, size)?);
    }
    let mut ci = Vec::with_capacity(np);
    for _ in 0..np {
        ci.push(read_mat(payload, size, size)?);
    }
    let b = read_mat(payload, size, ni)?;
    let l = read_mat(payload, size, no)?;
    if cursor != payload.len() {
        return Err(err("trailing bytes after payload"));
    }
    Ok(ParametricRom {
        g0,
        c0,
        gi,
        ci,
        b,
        l,
        full_dim,
    })
}

/// Bounds a header's parameter count by the payload that must carry it:
/// each parameter stores two matrices (G̃ᵢ, C̃ᵢ), each opening with a
/// 16-byte dimension header, so a count whose headers alone overrun the
/// payload is rejected before [`from_bytes`] reserves anything for it.
fn param_count(np: usize, payload_len: usize) -> Result<usize> {
    let need = np.saturating_mul(2 * 16);
    if need > payload_len {
        return Err(PmorError::Invalid(format!(
            "ROM deserialization: parameter count {np} needs {need} bytes of \
             matrix headers, but the payload holds {payload_len}"
        )));
    }
    Ok(np)
}

/// Writes `rom` to `path` in the versioned binary ROM format (see
/// [`to_bytes`]).
///
/// # Errors
///
/// Propagates filesystem failures as [`PmorError::Invalid`].
pub fn save(rom: &ParametricRom, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    std::fs::write(path, to_bytes(rom))
        .map_err(|e| PmorError::Invalid(format!("ROM save to {}: {e}", path.display())))
}

/// Reads a ROM previously written by [`save`]. The reloaded model is
/// bitwise identical to the saved one: every evaluation (`transfer`,
/// poles, …) reproduces the original's results exactly.
///
/// # Errors
///
/// Propagates filesystem failures and every [`from_bytes`] rejection.
pub fn load(path: impl AsRef<Path>) -> Result<ParametricRom> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| PmorError::Invalid(format!("ROM load from {}: {e}", path.display())))?;
    from_bytes(&bytes)
}

impl ParametricRom {
    /// Method form of [`save`].
    ///
    /// # Errors
    ///
    /// See [`save`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        save(self, path)
    }

    /// Method form of [`load`].
    ///
    /// # Errors
    ///
    /// See [`load`].
    pub fn load(path: impl AsRef<Path>) -> Result<ParametricRom> {
        load(path)
    }
}

/// Content fingerprint of a reduced model: FNV-1a over its canonical
/// serialized bytes ([`to_bytes`]). Because the serialization stores
/// every `f64` by exact bit pattern, two models fingerprint equal iff
/// they are bitwise identical — the key the `pmor serve` in-memory ROM
/// store and its `Eval` requests address models by.
pub fn fingerprint(rom: &ParametricRom) -> u64 {
    fnv1a_bytes(&to_bytes(rom))
}

#[cfg(test)]
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

#[cfg(test)]
mod tests {
    use super::temp_dir::TempDir;
    use super::*;
    use pmor_sparse::CooBuilder;

    /// RC low-pass as a "full" system small enough to double as its own ROM.
    fn rc2() -> ParametricSystem {
        // G = [[1/50+1/100, -1/100], [-1/100, 1/100]], C = diag(0, 1e-12)
        let mut g = CooBuilder::new(2, 2);
        g.stamp_pair(Some(0), None, 0.02);
        g.stamp_pair(Some(0), Some(1), 0.01);
        let mut c = CooBuilder::new(2, 2);
        c.stamp_pair(Some(1), None, 1e-12);
        let mut gi = CooBuilder::new(2, 2);
        gi.stamp_pair(Some(0), Some(1), 0.01); // conductance tracks p0
        let ci = CooBuilder::new(2, 2);
        let mut b = Matrix::zeros(2, 1);
        b[(0, 0)] = 1.0;
        ParametricSystem {
            g0: g.build_csr(),
            c0: c.build_csr(),
            gi: vec![gi.build_csr()],
            ci: vec![ci.build_csr()],
            b: b.clone(),
            l: b,
        }
    }

    fn identity_rom(sys: &ParametricSystem) -> ParametricRom {
        ParametricRom::by_congruence(sys, &Matrix::identity(sys.dim()))
    }

    #[test]
    fn identity_projection_reproduces_full_model() {
        let sys = rc2();
        let rom = identity_rom(&sys);
        assert_eq!(rom.size(), 2);
        // DC: H(0) = impedance at node 0 = 50 Ω.
        let h = rom.transfer(&[0.0], Complex64::ZERO).unwrap();
        assert!((h[(0, 0)].re - 50.0).abs() < 1e-9);
        assert!(h[(0, 0)].im.abs() < 1e-12);
    }

    #[test]
    fn pole_of_rc_lowpass() {
        // The single finite pole is at -1/(R_th C) with R_th = 100 Ω seen by
        // the cap (series R from node1 to node0 then 50 || — actually node 1
        // sees 100 + 50 = 150 Ω through to ground).
        let sys = rc2();
        let rom = identity_rom(&sys);
        let poles = rom.poles(&[0.0]).unwrap();
        assert_eq!(poles.len(), 1);
        let expect = -1.0 / (150.0 * 1e-12);
        assert!(
            (poles[0].re - expect).abs() < 1e-3 * expect.abs(),
            "{poles:?} vs {expect}"
        );
        assert!(poles[0].im.abs() < 1.0);
    }

    #[test]
    fn parameter_shifts_pole() {
        // Raising p0 increases the series conductance (lower R), moving the
        // pole to higher frequency (more negative).
        let sys = rc2();
        let rom = identity_rom(&sys);
        let p0 = rom.poles(&[0.0]).unwrap()[0].re;
        let p1 = rom.poles(&[0.5]).unwrap()[0].re;
        assert!(p1 < p0, "pole did not speed up: {p0} -> {p1}");
    }

    #[test]
    fn transfer_at_pole_blows_up() {
        // At the pole the pencil is singular up to roundoff: either the
        // factorization fails outright or the response is enormous.
        let sys = rc2();
        let rom = identity_rom(&sys);
        let pole = rom.poles(&[0.0]).unwrap()[0];
        match rom.transfer(&[0.0], pole) {
            Err(_) => {}
            Ok(h) => assert!(h[(0, 0)].abs() > 1e6, "finite response at pole: {h:?}"),
        }
        // Slightly off the pole the response is finite and modest.
        let near = Complex64::new(pole.re * 0.5, 0.0);
        let h = rom.transfer(&[0.0], near).unwrap();
        assert!(h[(0, 0)].abs() < 1e4);
    }

    #[test]
    fn non_finite_inputs_are_rejected_not_evaluated() {
        let rom = identity_rom(&rc2());
        let s = Complex64::jw(1e9);
        let mut ws = EvalWorkspace::new();
        for (p, s, what) in [
            (vec![f64::NAN], s, "p"),
            (vec![f64::INFINITY], s, "p"),
            (vec![0.0], Complex64::new(f64::NAN, 0.0), "s"),
            (vec![0.0], Complex64::new(0.0, f64::NEG_INFINITY), "s"),
        ] {
            assert_eq!(rom.transfer(&p, s), Err(PmorError::NonFinite(what)));
            assert_eq!(
                rom.transfer_with(&p, s, &mut ws),
                Err(PmorError::NonFinite(what))
            );
            let batch = [
                EvalPoint::new(vec![0.0], Complex64::jw(1e8)),
                EvalPoint::new(p, s),
            ];
            assert_eq!(
                rom.eval_batch(&batch, &mut ws),
                Err(PmorError::NonFinite(what))
            );
        }
        // The workspace still evaluates cleanly afterwards.
        let h = rom.transfer_with(&[0.0], s, &mut ws).unwrap();
        assert_eq!(h, rom.transfer(&[0.0], s).unwrap());
    }

    #[test]
    fn passivity_stamp_detects_asymmetric_ports() {
        let mut sys = rc2();
        let rom = identity_rom(&sys);
        assert!(rom.is_passive_stamp(&[0.0]).unwrap());
        // Break B = L.
        sys.l = Matrix::zeros(2, 1);
        sys.l[(1, 0)] = 1.0;
        let rom = identity_rom(&sys);
        assert!(!rom.is_passive_stamp(&[0.0]).unwrap());
    }

    #[test]
    fn moments_of_identity_rom_match_hand_computation() {
        let sys = rc2();
        let rom = identity_rom(&sys);
        let m = rom.nominal_transfer_moments(2).unwrap();
        // m0 = Lᵀ G⁻¹ B = 50.
        assert!((m[0][(0, 0)] - 50.0).abs() < 1e-9);
        // m1 = -Lᵀ G⁻¹ C G⁻¹ B; x = G⁻¹B = [50, 50], Cx = [0, 5e-11],
        // G⁻¹(Cx) = v with v0 = 50*5e-11... compute: solve G v = [0,5e-11]:
        // v1 - v0 = 5e-11/0.01 ... v0 = 2.5e-9, v1 = 7.5e-9 → m1 = -2.5e-9.
        assert!((m[1][(0, 0)] + 2.5e-9).abs() < 1e-18, "{}", m[1][(0, 0)]);
    }

    #[test]
    fn pencil_poles_rejects_mismatched_dims() {
        let g = Matrix::<f64>::identity(2);
        let c = Matrix::<f64>::identity(3);
        assert!(pencil_poles(&g, &c).is_err());
    }

    #[test]
    fn serialization_round_trips_bitwise() {
        let sys = rc2();
        let rom = identity_rom(&sys);
        let bytes = to_bytes(&rom);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.size(), rom.size());
        assert_eq!(back.num_params(), rom.num_params());
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 3.7e8);
        let h0 = rom.transfer(&[0.13], s).unwrap();
        let h1 = back.transfer(&[0.13], s).unwrap();
        assert_eq!(h0[(0, 0)].re.to_bits(), h1[(0, 0)].re.to_bits());
        assert_eq!(h0[(0, 0)].im.to_bits(), h1[(0, 0)].im.to_bits());
    }

    #[test]
    fn deserialization_rejects_bad_inputs() {
        let rom = identity_rom(&rc2());
        let good = to_bytes(&rom);
        // Truncation.
        assert!(from_bytes(&good[..good.len() - 9]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(from_bytes(&bad).is_err());
        // Unsupported version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            from_bytes(&bad),
            Err(PmorError::Invalid(msg)) if msg.contains("version")
        ));
        // Payload corruption → checksum mismatch.
        let mut bad = good.clone();
        bad[40] ^= 0x01;
        assert!(matches!(
            from_bytes(&bad),
            Err(PmorError::Invalid(msg)) if msg.contains("checksum")
        ));
        // Intact input still loads.
        assert!(from_bytes(&good).is_ok());
    }

    #[test]
    fn fingerprint_tracks_content_bitwise() {
        let sys = rc2();
        let rom = identity_rom(&sys);
        let fp = fingerprint(&rom);
        // Stable across a serialization round trip (bitwise identity).
        let back = from_bytes(&to_bytes(&rom)).unwrap();
        assert_eq!(fp, fingerprint(&back));
        // Any single-bit content change moves the fingerprint.
        let mut other = rom.clone();
        other.g0[(0, 0)] = f64::from_bits(other.g0[(0, 0)].to_bits() ^ 1);
        assert_ne!(fp, fingerprint(&other));
    }

    #[test]
    fn save_and_load_files() {
        // Unique per process: concurrent `cargo test` runs must not race
        // on the same file.
        let dir = TempDir::new("rom_io_test");
        let path = dir.join("rc2.rom");
        let rom = identity_rom(&rc2());
        rom.save(&path).unwrap();
        let back = ParametricRom::load(&path).unwrap();
        assert_eq!(to_bytes(&back), to_bytes(&rom));
        assert_eq!(back.full_dim, 2);
        assert!(ParametricRom::load(dir.join("missing.rom")).is_err());
    }
}
