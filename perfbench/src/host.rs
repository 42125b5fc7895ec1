//! Host fingerprint and the environment guard.

use fpfpga_softfp::simd;
use std::process::Command;

/// Environment variables that silently change which program runs: the
/// SIMD engine override, the multi-array thread override the test
/// suites read, and the conformance sweeps' evaluation-path switches.
pub fn forbidden_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            k == "FPFPGA_SIMD" || k == "FPFPGA_MULTI_THREADS" || k.starts_with("FPUCONFORM_")
        })
        .collect()
}

/// Stdout of a short command, or "unknown" when it cannot run (a
/// source checkout without git metadata, for example).
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

pub struct Fingerprint {
    parallelism: usize,
    engine: String,
    avx2: bool,
    avx512: bool,
    git_rev: String,
    rustc: String,
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine: format!("{:?}", simd::active_engine()),
            avx2: simd::avx2_available(),
            avx512: simd::avx512_available(),
            // Only the working directory's own `.git`: a checkout without
            // git metadata reads "unknown", not an enclosing repository.
            git_rev: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"simd_engine\":{},\"avx2\":{},\"avx512\":{},\"git_rev\":{},\"rustc\":{}}}",
            self.parallelism,
            crate::report::json_str(&self.engine),
            self.avx2,
            self.avx512,
            crate::report::json_str(&self.git_rev),
            crate::report::json_str(&self.rustc)
        )
    }
}
