//! Seeded input generation. The program under test receives only what
//! this module produces: request bodies and their order.

use fermihedral::EncodingProblem;
use std::collections::BTreeSet;

/// The seed used when `--seed` is not given; `expected.json` holds golden
/// `serve_miss` weights for it.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64. Written out here, not taken from `vendor/rand`, so the
/// generated problems — and the golden weights recorded for them — cannot
/// change when that stand-in crate does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three popular problems of `serve_loadgen`, as `(modes, body)`:
/// N=2 and N=3 full-SAT Majorana weight, and an N=2 Hamiltonian-shaped
/// request.
pub const HIT_BODIES: [(usize, &str); 3] = [
    (
        2,
        r#"{"modes": 2, "algebraic_independence": true, "deadline_ms": 60000}"#,
    ),
    (
        3,
        r#"{"modes": 3, "algebraic_independence": true, "deadline_ms": 60000}"#,
    ),
    (
        2,
        r#"{"modes": 2, "objective": {"hamiltonian": [[0, 1], [2, 3]]}, "deadline_ms": 60000}"#,
    ),
];

/// The `serve_hit` request order for one client: indices into
/// [`HIT_BODIES`] in `serve_loadgen`'s 6:1:1 mix, drawn from the seed.
pub fn hit_order(seed: u64, client: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed ^ (0x5e7f_e417 + client as u64));
    std::iter::repeat_with(move || match rng.below(8) {
        0 => 1,
        1 => 2,
        _ => 0,
    })
}

/// Modes of every `serve_miss` problem.
pub const MISS_MODES: usize = 3;
/// Monomials per `serve_miss` problem.
pub const MISS_MONOMIALS: usize = 3;

/// One generated `serve_miss` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissProblem {
    /// The Hamiltonian's monomials, each a sorted list of Majorana
    /// indices; the list itself is sorted.
    pub monomials: Vec<Vec<u32>>,
    /// The `POST /v1/compile` body.
    pub body: String,
}

impl MissProblem {
    /// The problem the server will reconstruct from [`body`](Self::body),
    /// parsed through the program's own request schema.
    pub fn problem(&self) -> EncodingProblem {
        let doc = jsonkit::parse(&self.body).expect("generated bodies are JSON");
        engine::problem_from_json(&doc, None).expect("generated bodies fit the request schema")
    }
}

/// The `serve_miss` problems: every full-SAT N=3 Hamiltonian-weight
/// problem whose Hamiltonian is three distinct Majorana pairs `[a, b]` —
/// all 455 of them — in an order drawn from the seed. Distinct as *sets*
/// of monomials, which is what the fingerprint hashes, so on a cold cache
/// every request is a miss; asserts the fingerprints really differ.
///
/// Three pairs, not more or longer monomials, because the race then needs
/// a few milliseconds (a few hundred conflicts): richer Hamiltonians cost
/// 50 ms to 1 s each on this engine, which would leave a ten-second run
/// with a few dozen samples and hide the 10 ms race quantum this workload
/// exists to show.
pub fn miss_problems(seed: u64) -> Vec<MissProblem> {
    let majoranas = 2 * MISS_MODES as u32;
    let mut pairs: Vec<Vec<u32>> = Vec::new();
    for a in 0..majoranas {
        for b in (a + 1)..majoranas {
            pairs.push(vec![a, b]);
        }
    }
    let mut out = Vec::new();
    let mut fingerprints: BTreeSet<String> = BTreeSet::new();
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            for k in (j + 1)..pairs.len() {
                let monomials = vec![pairs[i].clone(), pairs[j].clone(), pairs[k].clone()];
                let listed: Vec<String> = monomials
                    .iter()
                    .map(|m| format!("[{}, {}]", m[0], m[1]))
                    .collect();
                let body = format!(
                    "{{\"modes\": {MISS_MODES}, \"objective\": {{\"hamiltonian\": [{}]}}, \
                     \"algebraic_independence\": true, \"deadline_ms\": 60000}}",
                    listed.join(", ")
                );
                let problem = MissProblem { monomials, body };
                assert!(
                    fingerprints.insert(engine::fingerprint(&problem.problem()).to_hex()),
                    "two generated problems share a fingerprint"
                );
                out.push(problem);
            }
        }
    }
    // Fisher-Yates.
    let mut rng = Rng::new(seed ^ 0x0031_55ed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        for seed in [DEFAULT_SEED, 77] {
            let a = miss_problems(seed);
            let b = miss_problems(seed);
            assert_eq!(a, b, "seed {seed} must reproduce its problems");
            let order_a: Vec<usize> = hit_order(seed, 0).take(64).collect();
            let order_b: Vec<usize> = hit_order(seed, 0).take(64).collect();
            assert_eq!(order_a, order_b);
            assert_ne!(
                order_a,
                hit_order(seed, 1).take(64).collect::<Vec<_>>(),
                "clients draw different orders"
            );
        }
        assert_ne!(miss_problems(DEFAULT_SEED), miss_problems(77));
    }

    #[test]
    fn miss_problems_are_unique_and_well_formed() {
        for seed in [DEFAULT_SEED, 77] {
            let problems = miss_problems(seed);
            assert_eq!(problems.len(), 455);
            let fingerprints: BTreeSet<String> = problems
                .iter()
                .map(|p| engine::fingerprint(&p.problem()).to_hex())
                .collect();
            assert_eq!(fingerprints.len(), problems.len());
            for p in &problems {
                assert_eq!(p.monomials.len(), MISS_MONOMIALS);
                assert!(p.monomials.iter().all(|m| m.len() == 2));
                let problem = p.problem();
                assert_eq!(problem.num_modes(), MISS_MODES);
                assert!(problem.has_algebraic_independence());
            }
        }
    }

    #[test]
    fn hit_order_is_the_six_one_one_mix() {
        let mut counts = [0usize; 3];
        for i in hit_order(DEFAULT_SEED, 0).take(8000) {
            counts[i] += 1;
        }
        assert!((5700..6300).contains(&counts[0]), "{counts:?}");
        assert!((800..1200).contains(&counts[1]), "{counts:?}");
        assert!((800..1200).contains(&counts[2]), "{counts:?}");
    }
}
