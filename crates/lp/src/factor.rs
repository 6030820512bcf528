//! Product-form basis factorization for the network simplex kernel.
//!
//! The revised simplex method needs two linear solves per pivot —
//! `w = B⁻¹·Aⱼ` (FTRAN, the entering column in the basis frame) and
//! `y = c_Bᵀ·B⁻¹` (BTRAN, the simplex multipliers) — plus one basis
//! update when a column enters. Carrying an explicit dense `m × m`
//! inverse makes each of those `O(m²)`; this module replaces it with the
//! **product form of the inverse**: the basis inverse is held as a
//! product of elementary *eta* matrices,
//!
//! ```text
//! B⁻¹ = Eₖ · Eₖ₋₁ · … · E₁
//! ```
//!
//! where each `Eᵢ` differs from the identity in a single column (its
//! *pivot column*). The file is periodically rebuilt from the basis
//! columns (*refactorization*, owned by the caller in `network.rs`) to
//! bound both its length and accumulated rounding drift.
//!
//! # Cost
//!
//! The entering direction of a flow basis is almost all zeros (2.8
//! nonzeros on average per refactorized column on the 512-site ring,
//! whose bases have over 1,000 rows), so the work vector is a
//! [`SparseWork`]: dense values plus the list of rows written since it
//! was last cleared.
//!
//! * [`Factorization::ftran_sparse`] visits every eta head once (one
//!   compare for an eta whose pivot row is zero) and does arithmetic
//!   only on the entries of the etas it applies, recording each row it
//!   writes. It never scans the `m` rows.
//! * [`Factorization::push_eta`] reads only the sorted pattern, so an
//!   append is `O(nnz(w))`.
//! * [`Factorization::btran`] is `O(Σ nnz(η))` over the whole file: it
//!   cannot skip an eta, since every eta folds into its pivot component.
//!   It is the one solve per pivot whose cost grows with the file.
//! * [`Factorization::ftran`] is the dense form, for inputs that really
//!   are dense (the right-hand side of `x_B`).
//!
//! The sparse and dense forms perform the same floating-point operations
//! in the same order, so they produce the same bits; the unit tests pin
//! this against a dense reference under `f64::to_bits`.
//!
//! Storage is flat — one header per eta plus two parallel arrays of
//! off-pivot `(row, value)` entries — so a [`Factorization`] owned by a
//! workspace is reused across solves without allocating once its
//! capacity has grown to the working-set size.

// Kernel storage: every row index is below the `m` the file was reset
// with, minted by the caller from in-range pivot rows; runtime bound
// checks in the FTRAN/BTRAN inner loops would be pure overhead.
// audit:allow-file(slice-index): eta entries are bounded by the m the file was reset with; see module note
#![allow(clippy::indexing_slicing)]

/// One elementary matrix of the product file: identity except in column
/// `pivot_row`, where the diagonal holds `pivot_val` and the rows listed
/// in `entries[start..end]` hold the off-pivot values.
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    pivot_row: u32,
    pivot_val: f64,
    start: u32,
    end: u32,
}

/// A length-`m` work vector that knows its nonzero pattern: dense
/// values, zero outside `pattern`, plus the rows written since the last
/// [`clear`](Self::clear), each listed once. A written row stays listed
/// even when its value cancels back to zero. All three buffers are
/// workspace arenas: after [`reset`](Self::reset) sizes them, clearing,
/// writing and sorting never allocate.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseWork {
    val: Vec<f64>,
    pattern: Vec<u32>,
    /// `mark[i]` exactly when row `i` is in `pattern`.
    mark: Vec<bool>,
}

impl SparseWork {
    /// Resizes to `m` all-zero rows with an empty pattern — `O(m)`, once
    /// per solve.
    pub(crate) fn reset(&mut self, m: usize) {
        self.val.clear();
        self.val.resize(m, 0.0);
        self.mark.clear();
        self.mark.resize(m, false);
        self.pattern.clear();
    }

    /// Re-zeroes the vector by its pattern: `O(nnz)`, not `O(m)`.
    pub(crate) fn clear(&mut self) {
        for &i in &self.pattern {
            self.val[i as usize] = 0.0;
            self.mark[i as usize] = false;
        }
        self.pattern.clear();
    }

    /// `x[i] += v`, recording row `i` in the pattern.
    pub(crate) fn add(&mut self, i: usize, v: f64) {
        if !self.mark[i] {
            self.mark[i] = true;
            self.pattern.push(i as u32);
        }
        self.val[i] += v;
    }

    /// Sorts the pattern ascending, in place, so passes over it visit
    /// rows in the order a dense scan would.
    pub(crate) fn sort_pattern(&mut self) {
        self.pattern.sort_unstable();
    }

    /// The dense values (zero outside the pattern).
    pub(crate) fn values(&self) -> &[f64] {
        &self.val
    }

    /// The rows written since the last clear.
    pub(crate) fn pattern(&self) -> &[u32] {
        &self.pattern
    }

    /// Bytes of heap capacity pinned by the three arenas.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.val.capacity() * std::mem::size_of::<f64>()
            + self.pattern.capacity() * std::mem::size_of::<u32>()
            + self.mark.capacity()
    }
}

/// A basis inverse in product (eta-file) form. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factorization {
    m: usize,
    heads: Vec<EtaHead>,
    /// Off-pivot entry rows, flat across all etas (`heads[i]` owns
    /// `rows[start..end]` / `vals[start..end]`).
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl Factorization {
    /// Resets the file to the identity on `m` rows, keeping capacity.
    pub(crate) fn reset(&mut self, m: usize) {
        self.m = m;
        self.heads.clear();
        self.rows.clear();
        self.vals.clear();
    }

    /// Number of etas in the file (the refactorization trigger input).
    pub(crate) fn eta_count(&self) -> usize {
        self.heads.len()
    }

    /// Total off-pivot entries across the file (the eta-length telemetry).
    pub(crate) fn entry_count(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of heap capacity currently pinned by the file.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<EtaHead>()
            + self.rows.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Appends the eta matrix that maps the entering direction
    /// `w = B⁻¹·Aⱼ` onto `e_r`, i.e. performs the basis exchange at pivot
    /// row `r`. Reads only `w`'s pattern, which must be sorted
    /// ([`SparseWork::sort_pattern`]) so the entries land ascending by
    /// row. Returns `false` (file unchanged) if the pivot element `w[r]`
    /// is too small to divide by safely — the caller must then
    /// refactorize or fall back.
    pub(crate) fn push_eta(&mut self, r: usize, w: &SparseWork) -> bool {
        debug_assert_eq!(w.val.len(), self.m);
        debug_assert!(w.pattern.windows(2).all(|p| p[0] < p[1]));
        let piv = w.val[r];
        if piv.abs() < 1e-12 || !piv.is_finite() {
            return false;
        }
        let pivot_val = 1.0 / piv;
        let start = self.rows.len() as u32;
        for &i in &w.pattern {
            let wi = w.val[i as usize];
            if i as usize != r && wi != 0.0 {
                self.rows.push(i);
                self.vals.push(-wi * pivot_val);
            }
        }
        self.heads.push(EtaHead {
            pivot_row: r as u32,
            pivot_val,
            start,
            end: self.rows.len() as u32,
        });
        true
    }

    /// `x ← B⁻¹·x` on a [`SparseWork`]: the same operations as
    /// [`ftran`](Self::ftran), in the same order, recording every row it
    /// writes in the pattern (which it leaves unsorted).
    pub(crate) fn ftran_sparse(&self, x: &mut SparseWork) {
        debug_assert_eq!(x.val.len(), self.m);
        for h in &self.heads {
            let r = h.pivot_row as usize;
            let t = x.val[r];
            if t == 0.0 {
                continue;
            }
            // A nonzero row was written, so it is already listed.
            debug_assert!(x.mark[r]);
            x.val[r] = h.pivot_val * t;
            for k in h.start as usize..h.end as usize {
                x.add(self.rows[k] as usize, self.vals[k] * t);
            }
        }
    }

    /// `x ← B⁻¹·x` on a dense vector: applies the etas in append order
    /// (`E₁` first).
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for h in &self.heads {
            let r = h.pivot_row as usize;
            let t = x[r];
            if t == 0.0 {
                continue;
            }
            x[r] = h.pivot_val * t;
            for k in h.start as usize..h.end as usize {
                x[self.rows[k] as usize] += self.vals[k] * t;
            }
        }
    }

    /// Dense reference for [`push_eta`](Self::push_eta): scans all `m`
    /// rows of a dense `w`.
    #[cfg(test)]
    pub(crate) fn push_eta_dense(&mut self, r: usize, w: &[f64]) -> bool {
        let piv = w[r];
        if piv.abs() < 1e-12 || !piv.is_finite() {
            return false;
        }
        let pivot_val = 1.0 / piv;
        let start = self.rows.len() as u32;
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                self.rows.push(i as u32);
                self.vals.push(-wi * pivot_val);
            }
        }
        self.heads.push(EtaHead {
            pivot_row: r as u32,
            pivot_val,
            start,
            end: self.rows.len() as u32,
        });
        true
    }

    /// The file as raw bits, for exact comparison in tests.
    #[cfg(test)]
    pub(crate) fn file_bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for h in &self.heads {
            out.extend([
                u64::from(h.pivot_row),
                h.pivot_val.to_bits(),
                u64::from(h.start),
                u64::from(h.end),
            ]);
        }
        out.extend(self.rows.iter().map(|&r| u64::from(r)));
        out.extend(self.vals.iter().map(|v| v.to_bits()));
        out
    }

    /// `yᵀ ← yᵀ·B⁻¹`: applies the etas in reverse order (`Eₖ` first).
    /// Each eta touches only its pivot component:
    /// `y[r] ← η_r·y[r] + Σᵢ ηᵢ·y[i]`.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        for h in self.heads.iter().rev() {
            let r = h.pivot_row as usize;
            let mut acc = h.pivot_val * y[r];
            for k in h.start as usize..h.end as usize {
                acc += self.vals[k] * y[self.rows[k] as usize];
            }
            y[r] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: multiply the eta file out against a vector.
    fn ftran_ref(f: &Factorization, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        f.ftran(&mut out);
        out
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// A sparse work vector scattered from `(row, value)` pairs, rows in
    /// the order given (repeats allowed).
    fn work(m: usize, entries: &[(usize, f64)]) -> SparseWork {
        let mut w = SparseWork::default();
        w.reset(m);
        for &(i, v) in entries {
            w.add(i, v);
        }
        w
    }

    /// Largest-magnitude row over `rows` (ascending) with strict `>`, so
    /// ties go to the lowest row — the refactorization's argmax.
    fn argmax(rows: impl Iterator<Item = usize>, w: &[f64], taken: &[bool]) -> Option<usize> {
        let mut best = None;
        let mut v_best = 1e-9;
        for r in rows {
            if !taken[r] && w[r].abs() > v_best {
                v_best = w[r].abs();
                best = Some(r);
            }
        }
        best
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Entry values drawn from a small set, so FTRAN cancels to exactly
    /// 0.0 and magnitudes tie in the argmax; `-0.0` and the smallest
    /// subnormal (whose eta entry `-w·(1/piv)` underflows to `-0.0`) are
    /// in the set too.
    const VALUES: [f64; 9] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0, -0.0, 5e-324];

    #[test]
    fn pattern_kernel_matches_the_dense_reference_bit_for_bit() {
        let mut rng = Rng(0x5EED);
        let mut neg_zero_entries = 0;
        let mut cancelled = 0;
        let mut ties = 0;
        for _ in 0..200 {
            let m = 2 + rng.below(14);
            let (mut sparse, mut dense) = (Factorization::default(), Factorization::default());
            sparse.reset(m);
            dense.reset(m);
            let mut taken = vec![false; m];
            let mut w = SparseWork::default();
            w.reset(m);
            // Build a file column by column, as refactorization does,
            // comparing every FTRAN result and every append.
            for _ in 0..m {
                let nnz = 1 + rng.below(4);
                let entries: Vec<(usize, f64)> = (0..nnz)
                    .map(|_| (rng.below(m), VALUES[rng.below(VALUES.len())]))
                    .collect();
                let mut x = vec![0.0; m];
                w.clear();
                for &(i, v) in &entries {
                    x[i] += v;
                    w.add(i, v);
                }
                dense.ftran(&mut x);
                sparse.ftran_sparse(&mut w);
                assert_eq!(bits(w.values()), bits(&x), "ftran on {entries:?}");
                for (i, &xi) in x.iter().enumerate() {
                    assert!(xi == 0.0 || w.pattern().contains(&(i as u32)));
                }
                cancelled += w
                    .pattern()
                    .iter()
                    .filter(|&&i| w.values()[i as usize] == 0.0)
                    .count();
                w.sort_pattern();
                let rows = w.pattern().iter().map(|&i| i as usize);
                let pick = argmax(rows, w.values(), &taken);
                assert_eq!(pick, argmax(0..m, &x, &taken));
                let Some(r) = pick else { continue };
                let best = x[r].abs();
                ties += (0..m)
                    .filter(|&i| i != r && !taken[i] && x[i].abs() == best)
                    .count();
                assert_eq!(sparse.push_eta(r, &w), dense.push_eta_dense(r, &x));
                assert_eq!(sparse.file_bits(), dense.file_bits());
                taken[r] = true;
            }
            neg_zero_entries += sparse
                .vals
                .iter()
                .filter(|v| v.to_bits() == (-0.0f64).to_bits())
                .count();
        }
        // The draw really exercises the edge cases it is meant to.
        assert!(neg_zero_entries > 0, "no -0.0 eta entries");
        assert!(cancelled > 0, "no FTRAN cancellation to zero");
        assert!(ties > 0, "no argmax ties");
    }

    #[test]
    fn clear_rezeroes_only_the_pattern_and_keeps_capacity() {
        let mut w = work(6, &[(4, 1.0), (1, -2.0), (4, -1.0)]);
        assert_eq!(w.pattern(), &[4, 1]);
        assert_eq!(
            w.values()[4].to_bits(),
            0.0f64.to_bits(),
            "cancelled, still listed"
        );
        w.sort_pattern();
        assert_eq!(w.pattern(), &[1, 4]);
        let bytes = w.capacity_bytes();
        w.clear();
        assert!(w.pattern().is_empty());
        assert_eq!(bits(w.values()), bits(&[0.0; 6]));
        assert_eq!(w.capacity_bytes(), bytes);
    }

    #[test]
    fn empty_file_is_the_identity() {
        let mut f = Factorization::default();
        f.reset(3);
        let mut x = vec![1.0, -2.0, 3.0];
        f.ftran(&mut x);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
        let mut y = vec![4.0, 5.0, 6.0];
        f.btran(&mut y);
        assert_eq!(y, vec![4.0, 5.0, 6.0]);
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.entry_count(), 0);
    }

    #[test]
    fn push_eta_rejects_tiny_pivots() {
        let mut f = Factorization::default();
        f.reset(2);
        assert!(!f.push_eta(0, &work(2, &[(0, 1e-13), (1, 1.0)])));
        assert_eq!(f.eta_count(), 0);
        assert!(f.push_eta(0, &work(2, &[(0, 2.0), (1, 1.0)])));
        assert_eq!(f.eta_count(), 1);
    }

    #[test]
    fn ftran_btran_agree_with_the_explicit_inverse() {
        // Build B⁻¹ for B = [[2, 1], [1, 3]] by pivoting its columns in:
        // start from I, enter column (2,1) at row 0, then (1,3) at row 1.
        let mut f = Factorization::default();
        f.reset(2);
        // w = B⁻¹_current · A_0 = I·(2,1) = (2,1); pivot row 0.
        assert!(f.push_eta(0, &work(2, &[(0, 2.0), (1, 1.0)])));
        // w = E₁·(1,3): t = 1, w0 = 0.5, w1 = 3 - 0.5 = 2.5; pivot row 1.
        let mut w = work(2, &[(0, 1.0), (1, 3.0)]);
        f.ftran_sparse(&mut w);
        assert!((w.values()[0] - 0.5).abs() < 1e-12);
        assert!((w.values()[1] - 2.5).abs() < 1e-12);
        w.sort_pattern();
        assert!(f.push_eta(1, &w));

        // det B = 5; B⁻¹ = [[0.6, -0.2], [-0.2, 0.4]].
        let binv = [[0.6, -0.2], [-0.2, 0.4]];
        for probe in [[1.0, 0.0], [0.0, 1.0], [3.0, -2.0]] {
            let got = ftran_ref(&f, &probe);
            for i in 0..2 {
                let want: f64 = (0..2).map(|k| binv[i][k] * probe[k]).sum();
                assert!((got[i] - want).abs() < 1e-12, "ftran {probe:?} row {i}");
            }
            let mut y = probe.to_vec();
            f.btran(&mut y);
            for k in 0..2 {
                let want: f64 = (0..2).map(|i| probe[i] * binv[i][k]).sum();
                assert!((y[k] - want).abs() < 1e-12, "btran {probe:?} col {k}");
            }
        }
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut f = Factorization::default();
        f.reset(2);
        assert!(f.push_eta(0, &work(2, &[(0, 1.0), (1, 0.5)])));
        let bytes = f.capacity_bytes();
        assert!(bytes > 0);
        f.reset(2);
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.capacity_bytes(), bytes);
    }
}
