//! Records the compiler flags the benchmark was built with, for the
//! host and build record printed with every result.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={}", flags.replace('\x1f', " "));
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
