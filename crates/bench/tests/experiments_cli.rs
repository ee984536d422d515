//! The `experiments` binary end to end: `--out` writes each table as CSV,
//! and a directory it cannot write to is a failed run, not a warning, so a
//! recorded curve cannot go missing unnoticed.

use std::path::Path;
use std::process::{Command, Output};

fn run_table1(out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--scale", "0.01", "--out"])
        .arg(out)
        .output()
        .expect("experiments binary runs")
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lshclust-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn out_writes_one_csv_per_table() {
    let dir = fresh_dir("experiments-cli-ok");
    let out = dir.join("csv");
    let output = run_table1(&out);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csvs: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("table1_") && name.ends_with(".csv"))
        .collect();
    assert!(!csvs.is_empty(), "no table1 CSV under {}", out.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_out_dir_fails_the_run() {
    let dir = fresh_dir("experiments-cli-bad");
    // A regular file where a directory is expected: `create_dir_all` on a
    // path below it fails with "Not a directory".
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let output = run_table1(&blocker.join("sub"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "exit 0 despite: {stderr}");
    assert!(
        stderr.contains("failed to write CSVs for table1"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
