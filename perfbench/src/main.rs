//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints human-readable lines, then one JSON result line. Exit codes:
//! 0 every unit passed its checks, 1 a unit failed, 2 bad usage.

#[global_allocator]
static ALLOC: c3_bench::alloc::CountingAlloc = c3_bench::alloc::CountingAlloc;

fn main() {
    let args = match c3_perfbench::args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", c3_perfbench::args::USAGE);
            std::process::exit(2);
        }
    };
    let (line, correct) = c3_perfbench::run(&args);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
