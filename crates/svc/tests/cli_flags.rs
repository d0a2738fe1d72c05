//! The `svc` binary's command-line contract, checked against the built
//! binary: a removed flag must be refused rather than silently ignored.

use std::process::{Command, Stdio};

#[test]
fn svc_rejects_the_removed_fuse_threshold_flag() {
    // `--connected` (connected-component sharding) went the same way.
    for args in [&["--fuse-threshold", "64"][..], &["--connected"]] {
        // The trailing `--help` makes a binary that still accepted the
        // flag print its usage and exit 0.
        let out = Command::new(env!("CARGO_BIN_EXE_svc"))
            .args(args)
            .arg("--help")
            .stdin(Stdio::null())
            .output()
            .expect("run svc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "svc accepted {}", args[0]);
        assert!(
            stderr.contains(&format!("unknown flag '{}'", args[0])),
            "stderr: {stderr}"
        );
    }
}
