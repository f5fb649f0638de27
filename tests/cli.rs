//! CLI contract for `rsp-cli anytime`: the deadline demo checkpoints and
//! resumes to the complete deep-space result, and bad checkpoints or
//! arguments fail with a one-line diagnostic and a non-zero exit, never
//! a panic backtrace. `rsp-cli verify` simulates a suite kernel and
//! checks its memory against the evaluator under the same contract.

use std::path::PathBuf;
use std::process::{Command, Output};

fn anytime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsp-cli"))
        .arg("anytime")
        .args(args)
        .output()
        .unwrap()
}

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsp-cli"))
        .arg("verify")
        .args(args)
        .output()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Asserts a failing invocation: non-zero exit, the expected fragment on
/// stderr, and no panic backtrace.
fn assert_fails_cleanly(out: Output, fragment: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {out:?}");
    assert!(
        stderr.contains(fragment),
        "missing {fragment:?} in {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "diagnostic must not be a panic: {stderr}"
    );
}

#[test]
fn anytime_demo_checkpoints_and_resumes_to_completion() {
    let ckpt = tmp("demo-ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    let path = ckpt.to_str().unwrap();

    // Zero deadline: truncated immediately, checkpoint written.
    let out = anytime(&["--deadline-ms", "0", "--resume", path]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("truncated (Deadline)"), "{stdout}");
    assert!(stdout.contains("checkpoint written"), "{stdout}");
    assert!(ckpt.exists());

    // Resume without a deadline: picks the checkpoint up and completes.
    let out = anytime(&["--resume", path]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert!(
        stdout.contains("complete: 480 candidates, 243 feasible"),
        "{stdout}"
    );
}

#[test]
fn resume_rejects_bad_checkpoints_with_one_line_diagnostics() {
    let bad = tmp("bad-ckpt.json");
    std::fs::write(&bad, "{\"version\": 1}").unwrap();
    let out = anytime(&["--resume", bad.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "invalid checkpoint");
    assert!(stderr.contains("bad-ckpt.json"), "{stderr}");

    assert_fails_cleanly(anytime(&["--deadline-ms", "soon"]), "millisecond count");
    assert_fails_cleanly(anytime(&["--resume"]), "--resume needs a value");
    assert_fails_cleanly(anytime(&["--samples", "2"]), "unknown anytime argument");
}

#[test]
fn verify_simulates_a_suite_kernel_bit_identically() {
    let out = verify(&["2D-FDCT", "RSP#2", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "OK: 2D-FDCT on RSP#2 (seed 7): 1056 ops, 44 cycles, memory bit-identical\n"
    );
}

#[test]
fn verify_rejects_an_unknown_kernel_with_one_line() {
    let out = verify(&["no-such-kernel", "RSP#2", "7"]);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown kernel or architecture\n"
    );
    assert_fails_cleanly(out, "unknown kernel or architecture");
}
