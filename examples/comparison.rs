//! Runs the same workload over the open-cube algorithm, Raymond's,
//! Naimi–Trehel's and a centralized coordinator, printing the message
//! economics side by side (the E5 experiment at one size).
//!
//! ```text
//! cargo run --release --example comparison [n]
//! ```

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(64);
    assert!(opencube::topology::is_valid_size(n), "n must be a power of two");

    println!("comparing on n = {n} nodes (uniform, hotspot and burst workloads)\n");
    // The E5 experiment at one size: a sweep of four cells on one thread.
    let rows = oc_bench::e5_sweep(&[n], 42, 1, oc_algo::Hardening::None).results;
    oc_bench::report::print_table(oc_bench::E5_COLS, &rows);

    println!();
    println!("reading guide:");
    println!("  - open-cube's worst cases stay within log2(n)+2 = {};", n.trailing_zeros() + 2);
    println!("  - naimi-trehel's post-burst worst grows with n (no structural bound);");
    println!("  - raymond is cheap under saturation but its static tree cannot adapt");
    println!("    (hotspot) and cannot survive failures;");
    println!("  - the centralized coordinator is a constant-cost single point of failure.");
}
