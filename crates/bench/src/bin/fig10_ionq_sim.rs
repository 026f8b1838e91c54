//! **Figure 10** — H₂ time evolution from the ground state on a simulated
//! IonQ Aria-1: measured energy distributions for JW vs BK vs Full SAT.
//!
//! We cannot run the real ion trap, so a simulation substitutes for it: the
//! identical compiled circuits execute under a noise model built from the
//! device parameters the paper reports (99.99 % 1q, 98.91 % 2q, 98.82 %
//! readout fidelity). The paper measured E = −1.49 (JW), −1.54 (BK),
//! −1.56 (Full SAT) against the exact −1.85; the ordering and σ ranking
//! are the reproduction target.
//!
//! Usage: `fig10_ionq_sim [--shots 3000] [--repeats 10] [--seed 9] [--timeout 20] [--csv]`

use encodings::map::map_hamiltonian;
use fermihedral_bench::args::Args;
use fermihedral_bench::pipeline::{
    bravyi_kitaev, compile_qubit_hamiltonian, jordan_wigner, sat_hamiltonian_encoding, Benchmark,
    Budget,
};
use fermihedral_bench::report::Table;
use fermion::MajoranaSum;
use mathkit::stats;
use qsim::{eigenstate, estimate_energy, spectrum, NoiseModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["shots", "repeats", "seed", "timeout", "csv"]);
    let shots = args.get_usize("shots", 3000);
    let repeats = args.get_usize("repeats", 10);
    let seed = args.get_u64("seed", 9);
    let csv = args.get_bool("csv");
    let budget = Budget::seconds(args.get_f64("timeout", 20.0));

    let h2 = Benchmark::Electronic.second_quantized(4).expect("H2");
    let monomials: Vec<_> = MajoranaSum::from_fermion(&h2)
        .weight_structure()
        .into_iter()
        .cloned()
        .collect();
    let sat = sat_hamiltonian_encoding(4, &monomials, true, budget);
    let encodings: Vec<(&str, encodings::MajoranaEncoding)> = vec![
        ("JW", jordan_wigner(4)),
        ("BK", bravyi_kitaev(4)),
        ("FullSAT", sat.encoding.clone()),
    ];

    let noise = NoiseModel::ionq_aria1();
    println!("# Figure 10: H2 from E0 on simulated IonQ Aria-1");
    println!(
        "# noise: p1 = {:.1e}, p2 = {:.1e}, readout flip = {:.1e}; {} x {} shots",
        noise.p1, noise.p2, noise.readout_flip, repeats, shots
    );
    let mut table = Table::new(&[
        "encoding",
        "exact E0",
        "mean E",
        "sigma(E)",
        "gates",
        "paper E",
        "paper sigma",
    ]);
    let paper: [(&str, f64, f64); 3] = [
        ("JW", -1.49, 0.50),
        ("BK", -1.54, 0.57),
        ("FullSAT", -1.56, 0.48),
    ];
    let mut rng = StdRng::seed_from_u64(seed);

    for (name, enc) in &encodings {
        let mapped = map_hamiltonian(enc, &h2);
        let eig = spectrum(&mapped);
        let (circuit, metrics) = compile_qubit_hamiltonian(&mapped, 1.0, 1);
        let psi = eigenstate(&mapped, 0);
        let mut energies = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let est = estimate_energy(&psi, &circuit, &mapped, shots, &noise, &mut rng);
            energies.push(est.energy);
        }
        let (p_e, p_sigma) = paper
            .iter()
            .find(|(p, _, _)| p == name)
            .map(|(_, e, s)| (*e, *s))
            .expect("paper row");
        table.row(&[
            name.to_string(),
            format!("{:.4}", eig.values[0]),
            format!("{:.4}", stats::mean(&energies)),
            format!("{:.4}", stats::stddev(&energies)),
            metrics.total.to_string(),
            format!("{p_e:.2}"),
            format!("{p_sigma:.2}"),
        ]);
    }
    table.print(csv);
    println!();
    println!("# reproduction target: Full SAT closest to the exact energy with the");
    println!("# smallest spread; JW worst (ordering, not absolute hardware numbers).");
}
