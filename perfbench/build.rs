//! Build stamp: the rustc version, the git commit when the source tree
//! is a git checkout, and an FNV-1a fingerprint of the code under test
//! (which identifies the source even where there is no git metadata).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let watched = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims"];
    let mut files = Vec::new();
    for entry in watched {
        let path = root.join(entry);
        println!("cargo:rerun-if-changed={}", path.display());
        collect(&path, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let bytes = fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={hash:016x}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Only the checkout's own git metadata names the commit; a checkout
    // exported without it (or nested in another repository) has none.
    let git = root.join(".git");
    let commit = if git.is_dir() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("refs").display());
        run("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}

/// Every regular file under `path` that is Rust source or a manifest.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "txt" || e == "json")
        {
            out.push(p);
        }
    }
}

fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string())
}
