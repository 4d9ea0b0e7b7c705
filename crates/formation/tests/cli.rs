//! End-to-end tests of the `fedform` binary (spawned as a real process
//! via the path Cargo exports to integration tests).

use std::process::Command;

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The read end is gone before the spawn, so the first write fails
    // with a broken pipe, as under `fedform | head -1`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fedform"))
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
