//! What compilations leave in the cache directory: one `<fingerprint>.json`
//! entry per problem, and nothing else — no lock file, no temp file, no
//! size index. A miss whose answer stays on disk as more than one file
//! pays the filesystem's create cost more than once.

use engine::{compile, fingerprint, EngineConfig};
use fermihedral::fixtures::{chain, hamiltonian};
use fermihedral::EncodingProblem;
use std::time::Duration;

#[test]
fn each_answer_leaves_exactly_one_entry_file() {
    let dir =
        std::env::temp_dir().join(format!("fermihedral-cache-dir-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        cache_dir: Some(dir.clone()),
        total_timeout: Some(Duration::from_secs(60)),
        ..EngineConfig::default()
    };
    // Distinct N=3 Hamiltonians (decided at the open), then an N=4 chain
    // whose lanes run and which finds chain(3) as a cross-size warm start.
    let terms: [&[[u32; 2]]; 4] = [
        &[[0, 1], [2, 3], [0, 3]],
        &[[0, 1], [2, 5]],
        &[[1, 2], [3, 4], [0, 5]],
        &[[0, 2], [1, 3], [4, 5]],
    ];
    let mut problems: Vec<EncodingProblem> = terms
        .iter()
        .map(|t| EncodingProblem::new(3, hamiltonian(t)))
        .collect();
    problems.push(chain(4));
    for problem in &problems {
        let outcome = compile(problem, &config);
        assert!(outcome.best.is_some(), "{problem:?}");
    }

    let mut expected: Vec<String> = problems
        .iter()
        .map(|p| format!("{}.json", fingerprint(p).to_hex()))
        .collect();
    expected.sort();
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(found, expected, "one entry file per problem, nothing else");
    std::fs::remove_dir_all(&dir).unwrap();
}
