//! Strict command line: an unknown flag, an unparsable value or an
//! unknown workload is a usage error and a non-zero exit — never a
//! silent fall-back to defaults.

pub const DEFAULT_SEED: u64 = 0x7C_B5EED;
/// `run_seconds` of `BENCHMARK.json`: the length every reported number
/// is measured at.
pub const DEFAULT_SECONDS: u64 = 8;

pub const USAGE: &str = "\
usage: ipa-perf-ledger [--workload <name>] [--seed <n>] [--seconds <1..60>]
                       [--trace <0|1>] [--probes] [--quick]

  --workload <name>  run one workload in this process and print its result
                     as the last line; without it every workload runs in a
                     child process of its own (untraced, then traced) and
                     the ledger is written to benchmark/out/BENCH.json
  --seed <n>         workload seed, decimal or 0x-hex (default 0x7CB5EED)
  --seconds <n>      run length; every op count scales with it (default 8)
  --trace <0|1>      0: end-to-end metrics, tracing off (default)
                     1: per-layer metrics: counters, probe ladder, traced run
  --probes           run only the host-wall probe ladder
  --quick            self-check sizes; never used for reported numbers

Flags take `--flag value` or `--flag=value`.";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub probes: bool,
    pub quick: bool,
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: `{value}` is not an unsigned integer"))
}

/// Parse the arguments after the program name. `workloads` is the set of
/// names `--workload` accepts.
pub fn parse<I>(args: I, workloads: &[&str]) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        probes: false,
        quick: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |flag: &str| -> Result<String, String> {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !workloads.contains(&name.as_str()) {
                    return Err(format!(
                        "--workload: unknown workload `{name}` (known: {})",
                        workloads.join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => out.seed = parse_u64("--seed", &value("--seed")?)?,
            "--seconds" => {
                out.seconds = parse_u64("--seconds", &value("--seconds")?)?;
                if !(1..=60).contains(&out.seconds) {
                    return Err(format!("--seconds: {} is outside 1..=60", out.seconds));
                }
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                }
            }
            "--probes" | "--quick" => {
                if inline.is_some() {
                    return Err(format!("{flag} takes no value"));
                }
                if flag == "--probes" {
                    out.probes = true;
                } else {
                    out.quick = true;
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["a_load", "b_load"];

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()), NAMES)
    }

    #[test]
    fn defaults_and_both_value_forms() {
        let a = p(&[]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 8, false));
        assert_eq!(a.workload, None);
        let b = p(&[
            "--workload",
            "a_load",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        let c = p(&[
            "--workload=a_load",
            "--seed=0x7",
            "--seconds=3",
            "--trace=1",
        ]);
        assert_eq!(b, c);
        let b = b.unwrap();
        assert_eq!(b.workload.as_deref(), Some("a_load"));
        assert_eq!((b.seed, b.seconds, b.trace), (7, 3, true));
        assert!(p(&["--quick", "--probes"]).unwrap().quick);
    }

    #[test]
    fn rejects_what_the_old_arg_helper_swallowed() {
        assert!(p(&["--seed=abc"]).unwrap_err().contains("--seed"));
        assert!(p(&["--sede=1"]).unwrap_err().contains("unknown argument"));
        assert!(p(&["--workload=nope"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(p(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(p(&["--seconds=0"]).is_err());
        assert!(p(&["--seconds=61"]).is_err());
        assert!(p(&["--trace=2"]).is_err());
        assert!(p(&["--quick=1"]).is_err());
        assert!(p(&["stray"]).is_err());
    }
}
