//! Content-addressed fingerprints of encoding problems.
//!
//! The solution cache keys on a SHA-256 digest of the *semantic content* of
//! an [`EncodingProblem`]: mode count, vacuum condition, objective kind,
//! and — for the Hamiltonian-dependent objective — the sorted multiset of
//! Majorana monomials. Problems with one search formula hash identically,
//! however their monomial lists were ordered and whatever their
//! algebraic-independence flag (it names only the paper formula); any
//! other change changes the digest and therefore misses the cache.

use fermihedral::{EncodingProblem, Objective};

/// A 256-bit problem fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint([u8; 32]);

impl Fingerprint {
    /// Lower-case hex, the cache's file-name form.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses the 64-character hex form (case-insensitive). `None` on any
    /// other length or a non-hex character — the compilation server feeds
    /// URL path segments through this.
    pub fn from_hex(hex: &str) -> Option<Fingerprint> {
        let bytes = hex.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Fingerprint(out))
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Canonical text form of a problem (the hash preimage). Stable across
/// monomial orderings; version-prefixed so future format changes invalidate
/// old caches wholesale.
pub fn canonical_form(problem: &EncodingProblem) -> String {
    let mut out = format!(
        "fermihedral-problem-v2|modes={}|vac={}",
        problem.num_modes(),
        problem.has_vacuum_condition(),
    );
    match problem.objective() {
        Objective::MajoranaWeight => out.push_str("|objective=majorana"),
        Objective::HamiltonianWeight(monomials) => {
            out.push_str("|objective=hamiltonian");
            // Sorted multiset: order-insensitive, multiplicity-sensitive.
            let mut keys: Vec<String> = monomials
                .iter()
                .map(|m| {
                    m.indices()
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            keys.sort_unstable();
            for k in &keys {
                out.push_str("|m=");
                out.push_str(k);
            }
        }
    }
    out
}

/// Fingerprints a problem.
pub fn fingerprint(problem: &EncodingProblem) -> Fingerprint {
    Fingerprint(sha256(canonical_form(problem).as_bytes()))
}

/// The problem's *size-key*: its [`canonical_form`] with the mode count
/// stripped. Two problems share a size-key exactly when they differ only
/// in mode count — the condition under which a cached smaller solution
/// embeds into the larger problem ([`encodings::embed`]) as a feasible
/// warm start. The vacuum condition stays in the key (a vacuum-free
/// solution need not satisfy a vacuum-constrained problem), and so does
/// the Hamiltonian-dependent monomial multiset (its indices must be legal
/// in both sizes *and* describe the same objective).
pub fn size_key(problem: &EncodingProblem) -> String {
    let canonical = canonical_form(problem);
    let mut out = String::with_capacity(canonical.len());
    out.push_str("fermihedral-sizekey-v1");
    for field in canonical.split('|').skip(1) {
        if field.starts_with("modes=") {
            continue;
        }
        out.push('|');
        out.push_str(field);
    }
    out
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Self-contained: the container has no crates.io
// access, and a cache key needs collision resistance, not speed.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of a byte string.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let mut message = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in message.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fermion::MajoranaMonomial;

    fn hex(bytes: &[u8; 32]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block (> 64 bytes).
        assert_eq!(
            hex(&sha256(&[b'a'; 1_000])),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn fingerprint_is_stable_and_order_insensitive() {
        let m1 = MajoranaMonomial::from_sorted(vec![0, 1]);
        let m2 = MajoranaMonomial::from_sorted(vec![2, 3]);
        let a = EncodingProblem::new(
            3,
            fermihedral::Objective::HamiltonianWeight(vec![m1.clone(), m2.clone()]),
        );
        let b = EncodingProblem::new(
            3,
            fermihedral::Objective::HamiltonianWeight(vec![m2.clone(), m1.clone()]),
        );
        assert_eq!(fingerprint(&a), fingerprint(&b), "order must not matter");

        // Multiplicity matters (multiset, not set).
        let c = EncodingProblem::new(
            3,
            fermihedral::Objective::HamiltonianWeight(vec![m1.clone(), m1.clone(), m2.clone()]),
        );
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn fingerprint_distinguishes_every_knob() {
        use fermihedral::Objective::MajoranaWeight;
        let base = EncodingProblem::new(4, MajoranaWeight);
        let prints = [
            fingerprint(&base),
            fingerprint(&EncodingProblem::new(5, MajoranaWeight)),
            fingerprint(&EncodingProblem::new(4, MajoranaWeight).with_vacuum_condition(false)),
            fingerprint(&EncodingProblem::new(
                4,
                fermihedral::Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(
                    vec![0, 1],
                )]),
            )),
        ];
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "fingerprints {i} and {j} collide");
            }
        }
    }

    #[test]
    fn size_key_ignores_modes_but_nothing_else() {
        use fermihedral::Objective::MajoranaWeight;
        let small = EncodingProblem::full_sat(3, MajoranaWeight);
        let large = EncodingProblem::full_sat(6, MajoranaWeight);
        assert_eq!(size_key(&small), size_key(&large));
        assert_ne!(
            fingerprint(&small),
            fingerprint(&large),
            "same key, distinct fingerprints"
        );
        // The vacuum condition and objective changes break the key.
        assert_ne!(
            size_key(&small),
            size_key(&EncodingProblem::full_sat(3, MajoranaWeight).with_vacuum_condition(false))
        );
        assert_ne!(
            size_key(&small),
            size_key(&EncodingProblem::full_sat(
                3,
                fermihedral::Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(
                    vec![0, 1]
                )])
            ))
        );
    }

    #[test]
    fn the_independence_flag_selects_no_cache_entry() {
        let objectives = [
            fermihedral::Objective::MajoranaWeight,
            fermihedral::Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(vec![
                0, 1,
            ])]),
        ];
        for n in 1..=8 {
            for objective in objectives.clone() {
                let plain = EncodingProblem::new(n, objective.clone());
                let full = EncodingProblem::full_sat(n, objective);
                assert_eq!(fingerprint(&plain), fingerprint(&full), "N={n}");
                assert_eq!(size_key(&plain), size_key(&full), "N={n}");
            }
        }
        assert!(!canonical_form(&EncodingProblem::new(
            2,
            fermihedral::Objective::MajoranaWeight
        ))
        .contains("alg="));
    }

    #[test]
    fn hex_form_is_64_chars() {
        let p = EncodingProblem::new(2, fermihedral::Objective::MajoranaWeight);
        let hex = fingerprint(&p).to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let fp = fingerprint(&EncodingProblem::new(
            3,
            fermihedral::Objective::MajoranaWeight,
        ));
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(
            Fingerprint::from_hex(&fp.to_hex().to_uppercase()),
            Some(fp),
            "case-insensitive"
        );
        assert_eq!(Fingerprint::from_hex(""), None);
        assert_eq!(Fingerprint::from_hex("abc"), None);
        assert_eq!(Fingerprint::from_hex(&"g".repeat(64)), None);
        assert_eq!(Fingerprint::from_hex(&"ab".repeat(33)), None);
    }
}
