//! `c3` — the single driver for every experiment and tool of the
//! harness. See [`c3_bench::cli`] for the subcommands and how they fail.

/// Every subcommand runs under the counting allocator, so `c3 perf` can
/// report allocs/event; the others pay one relaxed atomic add per
/// allocation.
#[global_allocator]
static ALLOC: c3_bench::alloc::CountingAlloc = c3_bench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    c3_bench::cli::main(&argv)
}
