//! Short benchmark runs must leave the repository's `results/` exactly as
//! they found it — even with `MN_*` knobs set that would point a figure
//! binary's cache at `results/cache`, shrink its grids, or evict entries.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use figbench::pass::fnv1a;

/// Every file under `dir`, with a hash of its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable results directory") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = fs::read(&path).expect("readable result file");
                files.insert(path, fnv1a(&bytes));
            }
        }
    }
    files
}

fn run(root: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figbench"))
        .current_dir(root)
        .args(args)
        .env("MN_CACHE_DIR", root.join("results").join("cache"))
        .env("MN_CACHE_BUDGET", "1")
        .env("MN_REQUESTS", "17")
        .env("MN_SEED", "3")
        .env("MN_TRACE", "full")
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn short_runs_leave_results_untouched() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository");
    let before = snapshot(&root.join("results"));
    for workload in ["figs-cold", "figs-warm", "closed-loop"] {
        for trace in ["0", "1"] {
            let result = run(
                root,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--requests",
                    "150",
                ],
            );
            assert!(
                result.starts_with("{\"correct\": true"),
                "{workload}: {result}"
            );
        }
    }
    // The golden warm replay copies the committed cache and must match the
    // committed tables byte for byte.
    let result = run(root, &["--workload", "figs-warm", "--seconds", "0"]);
    assert!(
        result.starts_with("{\"correct\": true"),
        "golden figs-warm: {result}"
    );
    assert!(result.contains("\"failed\": 0"), "{result}");
    assert_eq!(snapshot(&root.join("results")), before);
}

#[test]
fn a_directory_without_the_goldens_is_an_error() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-goldens");
    fs::create_dir_all(&dir).expect("a scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figbench"))
        .current_dir(&dir)
        .args(["--workload", "figs-cold", "--seconds", "0"])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
