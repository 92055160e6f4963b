//! Command line: `--workload NAME [--seed N] [--seconds S] [--trace 0|1]`.

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's Fig. 10 grid: 33 workloads × 4 protocol combinations.
    Fig10,
    /// OLTP/KV over 2²⁰ keys, zipf 0.99, 4 clusters, telemetry on.
    Oltp,
    /// vips on 8 clusters × 16 cores under the 2-thread sharded kernel.
    Vips8cPdes,
    /// The 3-host × 2-address resilient model, two checker configs.
    Modelcheck,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig10,
        Workload::Oltp,
        Workload::Vips8cPdes,
        Workload::Modelcheck,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10 => "fig10",
            Workload::Oltp => "oltp",
            Workload::Vips8cPdes => "vips8c-pdes",
            Workload::Modelcheck => "modelcheck",
        }
    }
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed (`RunConfig.seed`); `modelcheck` ignores it.
    pub seed: u64,
    /// Measurement budget in seconds: passes start while it lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// Usage text printed on a usage error.
pub const USAGE: &str = "usage: perfbench --workload fig10|oltp|vips8c-pdes|modelcheck \
                         [--seed N] [--seconds S] [--trace 0|1]";

/// Parse the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_command_line() {
        let a = p("--workload vips8c-pdes --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Vips8cPdes);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload fig10 --bogus",
            "--workload fig10 --seed",
            "--workload fig10 --seed -1",
            "--workload fig10 --seconds 0",
            "--workload fig10 --trace 2",
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
