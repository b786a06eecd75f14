//! Property-based tests for the GF(2) linear-algebra kernel.
//!
//! These check the algebraic invariants that the XOR-indexing machinery relies
//! on: XOR is a group operation, null spaces characterize set conflicts,
//! canonical subspace bases are representation-independent, and the dimension
//! formulas hold.

use gf2::{count, random, BitMatrix, BitVec, Subspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a width in the interesting range and a value fitting it.
fn vec_strategy() -> impl Strategy<Value = BitVec> {
    (1usize..=24).prop_flat_map(|w| {
        (Just(w), 0u64..(1u64 << w)).prop_map(|(w, bits)| BitVec::from_u64(bits, w))
    })
}

/// Strategy producing two vectors of the same width.
fn vec_pair_strategy() -> impl Strategy<Value = (BitVec, BitVec)> {
    (1usize..=24).prop_flat_map(|w| {
        (
            (0u64..(1u64 << w)).prop_map(move |b| BitVec::from_u64(b, w)),
            (0u64..(1u64 << w)).prop_map(move |b| BitVec::from_u64(b, w)),
        )
    })
}

/// Strategy producing a random (n, m, seed) triple for matrix properties.
fn matrix_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=16).prop_flat_map(|n| (Just(n), 1usize..=n, any::<u64>()))
}

proptest! {
    #[test]
    fn xor_is_an_involution(v in vec_strategy()) {
        prop_assert!((v ^ v).is_zero());
        let zero = BitVec::zero(v.width());
        prop_assert_eq!(v ^ zero, v);
    }

    #[test]
    fn xor_commutes_and_weight_bounds((a, b) in vec_pair_strategy()) {
        prop_assert_eq!(a ^ b, b ^ a);
        prop_assert!((a ^ b).weight() <= a.weight() + b.weight());
        // Parity of the weight is additive over GF(2).
        prop_assert_eq!((a ^ b).weight() % 2, (a.weight() + b.weight()) % 2);
    }

    #[test]
    fn dot_product_is_bilinear((a, b) in vec_pair_strategy(), c_bits in any::<u64>()) {
        let c = BitVec::from_u64(c_bits, a.width());
        // <a ^ c, b> = <a, b> ^ <c, b>
        prop_assert_eq!((a ^ c).dot(b), a.dot(b) ^ c.dot(b));
    }

    #[test]
    fn set_bits_roundtrip(v in vec_strategy()) {
        let rebuilt = BitVec::with_bits(&v.set_bits().collect::<Vec<_>>(), v.width());
        prop_assert_eq!(rebuilt, v);
        prop_assert_eq!(v.set_bits().count(), v.weight());
    }

    #[test]
    fn mul_vec_is_linear((n, m, seed) in matrix_params(), a_bits in any::<u64>(), b_bits in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let a = BitVec::from_u64(a_bits, n);
        let b = BitVec::from_u64(b_bits, n);
        prop_assert_eq!(h.mul_vec(a ^ b), h.mul_vec(a) ^ h.mul_vec(b));
    }

    #[test]
    fn rank_is_bounded_and_transpose_invariant((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let r = h.rank();
        prop_assert!(r <= n.min(m));
        prop_assert_eq!(r, h.transpose().rank());
    }

    #[test]
    fn null_space_dimension_is_n_minus_rank((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_matrix(&mut rng, n, m);
        let ns = h.null_space();
        prop_assert_eq!(ns.dim(), n - h.rank());
        // Every basis vector of the null space really maps to zero.
        for v in ns.basis() {
            prop_assert!(h.mul_vec(*v).is_zero());
        }
    }

    #[test]
    fn conflict_condition_matches_null_space(
        (n, m, seed) in matrix_params(),
        x_bits in any::<u64>(),
        y_bits in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_full_rank_matrix(&mut rng, n, m);
        let ns = h.null_space();
        let x = BitVec::from_u64(x_bits, n);
        let y = BitVec::from_u64(y_bits, n);
        // Paper Eq. 2: x·H = y·H  <=>  (x ⊕ y) ∈ N(H)
        prop_assert_eq!(h.mul_vec(x) == h.mul_vec(y), ns.contains(x ^ y));
    }

    #[test]
    fn with_null_space_reconstructs_the_same_space((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random::random_full_rank_matrix(&mut rng, n, m);
        let ns = h.null_space();
        let h2 = BitMatrix::with_null_space(&ns).unwrap();
        prop_assert_eq!(h2.null_space(), ns);
        prop_assert!(h2.has_full_column_rank());
        prop_assert_eq!(h2.n_cols(), m);
    }

    #[test]
    fn subspace_canonicalization_is_stable((n, m, seed) in matrix_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::random_subspace(&mut rng, n, m.min(n));
        // Rebuilding from shuffled/extended generator sets gives the same space.
        let mut gens: Vec<BitVec> = s.basis().to_vec();
        if gens.len() >= 2 {
            let extra = gens[0] ^ gens[1];
            gens.push(extra);
        }
        gens.reverse();
        let rebuilt = Subspace::from_generators(n, &gens);
        prop_assert_eq!(rebuilt, s);
    }

    #[test]
    fn dimension_formula_for_sum_and_intersection(seed in any::<u64>(), n in 3usize..=12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = random::random_subspace(&mut rng, n, n / 2);
        let v = random::random_subspace(&mut rng, n, n / 3 + 1);
        let sum = u.sum(&v);
        let inter = u.intersection(&v);
        prop_assert_eq!(u.dim() + v.dim(), sum.dim() + inter.dim());
        prop_assert!(sum.contains_subspace(&u));
        prop_assert!(sum.contains_subspace(&v));
        prop_assert!(u.contains_subspace(&inter));
        prop_assert!(v.contains_subspace(&inter));
    }

    #[test]
    fn orthogonal_complement_is_involutive(seed in any::<u64>(), n in 2usize..=14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::random_subspace(&mut rng, n, n / 2);
        let c = s.orthogonal_complement();
        prop_assert_eq!(c.dim(), n - s.dim());
        prop_assert_eq!(c.orthogonal_complement(), s);
    }

    #[test]
    fn subspace_vectors_are_members_and_distinct(seed in any::<u64>(), n in 2usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = random::random_subspace(&mut rng, n, (n / 2).min(6));
        let vectors: Vec<BitVec> = s.vectors().collect();
        prop_assert_eq!(vectors.len(), 1 << s.dim());
        let distinct: std::collections::HashSet<_> = vectors.iter().copied().collect();
        prop_assert_eq!(distinct.len(), vectors.len());
        for v in vectors {
            prop_assert!(s.contains(v));
        }
    }

    #[test]
    fn hyperplanes_have_codimension_one_in_parent(seed in any::<u64>(), n in 2usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (n / 2).clamp(1, 5);
        let s = random::random_subspace(&mut rng, n, dim);
        let hps = s.hyperplanes();
        prop_assert_eq!(hps.len(), (1usize << dim) - 1);
        for h in hps {
            prop_assert_eq!(h.dim(), dim - 1);
            prop_assert!(s.contains_subspace(&h));
            prop_assert_eq!(s.intersection_dim(&h), dim - 1);
        }
    }

    #[test]
    fn gaussian_binomial_symmetry(n in 1u32..=20, k_frac in 0.0f64..1.0) {
        let k = (k_frac * n as f64) as u32;
        let a = count::gaussian_binomial(n, k);
        let b = count::gaussian_binomial(n, n - k);
        prop_assert!((a / b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_based_matrix_has_identity_low_rows(seed in any::<u64>(), n in 4usize..=16) {
        let m = n / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let ns = random::random_permutation_null_space(&mut rng, n, m);
        let p = BitMatrix::permutation_based_with_null_space(&ns).unwrap();
        prop_assert!(p.is_permutation_based());
        prop_assert_eq!(p.null_space(), ns);
        for r in 0..m {
            prop_assert_eq!(p.row(r), BitVec::unit(r, m));
        }
    }
}

proptest! {
    #[test]
    fn packed_basis_agrees_with_subspace(seed in any::<u64>(), n in 2usize..=14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (seed as usize) % (n + 1);
        let space = random::random_subspace(&mut rng, n, dim);
        let packed = gf2::PackedBasis::from_subspace(&space);
        prop_assert_eq!(packed.dim(), space.dim());
        prop_assert_eq!(packed.to_subspace(), space.clone());
        // Membership and reduction agree on random probes.
        for _ in 0..32 {
            let v = random::random_vector(&mut rng, n);
            prop_assert_eq!(packed.contains(v.as_u64()), space.contains(v));
            prop_assert_eq!(packed.reduce(v.as_u64()), space.reduce(v).as_u64());
        }
        // Incremental insertion from scratch reproduces the canonical form.
        let mut incremental = gf2::PackedBasis::trivial(n);
        for b in space.basis() {
            prop_assert!(incremental.insert(b.as_u64()));
        }
        prop_assert_eq!(incremental, packed);
    }

    #[test]
    fn packed_replace_matches_subspace_rebuild(seed in any::<u64>(), n in 3usize..=12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1 + (seed as usize) % (n - 1);
        let space = random::random_subspace(&mut rng, n, dim);
        let packed = gf2::PackedBasis::from_subspace(&space);
        let index = (seed as usize) % dim;
        let direction = random::random_nonzero_vector(&mut rng, n);
        // Reference: rebuild from the surviving generators plus the direction.
        let mut gens: Vec<BitVec> = space.basis().to_vec();
        gens.remove(index);
        let remaining = Subspace::from_generators(n, &gens);
        gens.push(direction);
        let rebuilt = Subspace::from_generators(n, &gens);
        match packed.replaced(index, direction.as_u64()) {
            Some(swapped) => {
                prop_assert_eq!(swapped.dim(), dim);
                prop_assert_eq!(swapped.to_subspace(), rebuilt);
                prop_assert!(!remaining.contains(direction));
            }
            None => prop_assert!(remaining.contains(direction)),
        }
    }

    #[test]
    fn permutation_admission_matches_explicit_intersection(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (seed as usize) % (n + 1);
        let space = random::random_subspace(&mut rng, n, dim);
        for m in 0..=n {
            let low = Subspace::standard_span(n, 0..m);
            prop_assert_eq!(
                space.admits_permutation_based_function(m),
                space.intersection(&low).is_trivial(),
                "n={} m={} space={}", n, m, &space
            );
        }
        // The packed check agrees with the subspace check everywhere.
        let packed = gf2::PackedBasis::from_subspace(&space);
        for m in 0..=n {
            prop_assert_eq!(
                packed.admits_permutation_based(m),
                space.admits_permutation_based_function(m)
            );
        }
    }

    #[test]
    fn packed_hyperplanes_match_subspace_hyperplanes_in_order(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = ((seed as usize) % n).clamp(1, 6);
        let space = random::random_subspace(&mut rng, n, dim);
        let packed = gf2::PackedBasis::from_subspace(&space);
        let reference = space.hyperplanes();
        let got: Vec<gf2::PackedBasis> = packed.hyperplanes().collect();
        prop_assert_eq!(got.len(), reference.len());
        prop_assert_eq!(packed.hyperplanes().len(), reference.len());
        for (i, (p, r)) in got.iter().zip(&reference).enumerate() {
            // Same subspace, same canonical rows, same enumeration position —
            // and already canonical without any re-elimination.
            prop_assert_eq!(p, &gf2::PackedBasis::from_subspace(r), "hyperplane {}", i);
            prop_assert!(packed.contains_subspace(p));
            prop_assert_eq!(p.dim(), dim - 1);
        }
    }

    #[test]
    fn packed_extended_round_trips_through_hyperplanes(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = ((seed as usize) % n).clamp(1, 6);
        let space = random::random_subspace(&mut rng, n, dim);
        let packed = gf2::PackedBasis::from_subspace(&space);
        for hyper in packed.hyperplanes() {
            // Extending a hyperplane by any parent member outside it recovers
            // the parent exactly (the move the neighbourhood generator makes
            // with pool directions).
            let outside = packed
                .vectors()
                .find(|&v| !hyper.contains(v))
                .expect("a strict subspace misses some parent vector");
            prop_assert_eq!(hyper.extended(outside), packed.clone());
            // Extending by a hyperplane member (a non-zero one when the
            // hyperplane has any) changes nothing.
            let inside = hyper.vectors().find(|&v| v != 0).unwrap_or(0);
            prop_assert_eq!(hyper.extended(inside), hyper.clone());
        }
        // extended agrees with the Subspace-level construction on random
        // directions.
        for _ in 0..16 {
            let v = random::random_vector(&mut rng, n);
            prop_assert_eq!(
                packed.extended(v.as_u64()).to_subspace(),
                space.extended(v)
            );
        }
    }

    #[test]
    fn extended_key_words_match_the_extended_basis(
        seed in any::<u64>(),
        n in 1usize..=64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = (seed as usize >> 8) % (n + 1);
        let space = random::random_subspace(&mut rng, n, dim);
        let packed = gf2::PackedBasis::from_subspace(&space);
        let mut directions: Vec<u64> = (0..16)
            .map(|_| random::random_vector(&mut rng, n).as_u64())
            .collect();
        // Directions inside the span (zero included) leave the basis as is.
        directions.push(0);
        directions.extend(packed.vectors().take(4));
        let (mut buf, mut expected_buf) = ([0u64; 65], [0u64; 65]);
        for v in directions {
            let extended = packed.extended(v);
            let words = packed.extended_key_words(v, &mut buf);
            prop_assert_eq!(words, extended.key_words(&mut expected_buf), "v={:#x}", v);
            prop_assert_eq!(gf2::hash_key_words(words), extended.key_hash());
            prop_assert_eq!(gf2::CanonicalKey::from_words(words), extended.canonical_key());
        }
    }

    #[test]
    fn canonical_keys_are_injective_on_subspaces(
        seed in any::<u64>(),
        n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random::random_subspace(&mut rng, n, (seed as usize) % (n + 1));
        let b = random::random_subspace(&mut rng, n, (seed as usize / 7) % (n + 1));
        let ka = gf2::PackedBasis::from_subspace(&a).canonical_key();
        let kb = gf2::PackedBasis::from_subspace(&b).canonical_key();
        prop_assert_eq!(a == b, ka == kb);
        prop_assert_eq!(ka.as_words()[0] as usize, n);
    }
}

/// Body of `sliced_member_mask_matches_scalar_contains`, kept outside the
/// `proptest!` macro (its expansion depth scales with statement count).
fn check_sliced_mask_matches_contains(seed: u64, n: usize, lanes: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<gf2::PackedBasis> = (0..lanes)
        .map(|i| random::random_subspace(&mut rng, n, (seed as usize + i) % (n + 1)).to_packed())
        .collect();
    let block = gf2::SlicedBlock::from_bases(bases.iter());
    if block.lanes() != lanes {
        return Err(format!("lanes {} != {lanes}", block.lanes()));
    }
    for _ in 0..64 {
        let v = random::random_vector(&mut rng, n).as_u64();
        let expect = bases
            .iter()
            .enumerate()
            .fold(0u64, |m, (j, b)| m | (u64::from(b.contains(v)) << j));
        if block.member_mask(v) != expect {
            return Err(format!(
                "v={v:#x}: mask {:#x} != contains fold {expect:#x}",
                block.member_mask(v)
            ));
        }
    }
    // The zero vector is a member of every lane.
    if block.member_mask(0) != block.lane_mask() {
        return Err("zero vector must be in every lane".to_string());
    }
    Ok(())
}

proptest! {
    // A sliced block's word-parallel membership mask agrees lane-for-lane
    // with the scalar `PackedBasis::contains` on every probed vector, for
    // random blocks of mixed dimensions and any lane count up to the limit.
    #[test]
    fn sliced_member_mask_matches_scalar_contains(
        seed in any::<u64>(),
        n in 1usize..=16,
        lanes in 1usize..=gf2::SLICED_LANES,
    ) {
        prop_assert_eq!(check_sliced_mask_matches_contains(seed, n, lanes), Ok(()));
    }
}
