//! Exit codes of the `wcsim` binary on bad input: usage errors exit 1
//! with a message instead of panicking or aborting.

use std::fs;
use std::process::Command;

fn wcsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wcsim"))
        .args(args)
        .output()
        .expect("wcsim starts")
}

#[test]
fn oversized_kernel_memory_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("wcsim-exit-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ok.s");
    fs::write(&path, ".kernel ok regs 1\n exit\n").unwrap();
    let path = path.to_string_lossy().into_owned();
    let out = wcsim(&[
        "kernel",
        &path,
        "--blocks",
        "1",
        "--tpb",
        "32",
        "--mem",
        "99999999999",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("exceeds the limit"), "stderr: {stderr}");

    // The same kernel with a sane size still runs.
    let ok = wcsim(&[
        "kernel", &path, "--blocks", "1", "--tpb", "32", "--mem", "16",
    ]);
    assert_eq!(ok.status.code(), Some(0));
    let _ = fs::remove_dir_all(&dir);
}
