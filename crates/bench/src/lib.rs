//! # `ipa-bench` — the experiment harness
//!
//! One binary per table/figure of the paper:
//!
//! | binary            | paper artifact                                  |
//! |-------------------|-------------------------------------------------|
//! | `table1`          | Table 1 — TPC-B, 0×0 vs 2×4 pSLC vs 2×4 odd-MLC |
//! | `fig1_write_amp`  | Figure 1 — DBMS write amplification             |
//! | `fig2_ispp`       | Figure 2 — ISPP & erase-before-overwrite        |
//! | `fig3_layout`     | Figure 3 — page format & OOB ECC layout         |
//! | `headline_claims` | §1/abstract — invalidations/GC/throughput/life  |
//! | `ipa_vs_ipl`      | §1 — IPA vs In-Page Logging (trace replay)      |
//! | `interference`    | §3 — flash modes & program interference         |
//! | `nm_sweep`        | ablation — N×M scheme sweep                     |
//! | `nop_sweep`       | ablation — NOP (reprogram budget) sensitivity   |
//!
//! Each binary's module docs list its flags (most take `--seed=<n>` and
//! one size knob: `--secs=<f64>`, `--tx=<n>` or `--rounds=<n>`); every
//! binary prints fixed-width tables to stdout and is deterministic for a
//! given seed. A binary accepts exactly the flags it asks for: an unknown
//! flag name, a stray value token (the `300` in `--tx 300`) and a
//! `--flag=value` whose value does not parse are usage errors (exit
//! status 2), never a silent default.

pub mod sweep_csv;

use std::fmt::Display;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::StackSpec;

/// Table 1's `[0×0]` column: the traditional out-of-place write path on
/// one chip of full-capacity MLC — the same silicon used the normal way.
pub fn traditional_mlc() -> StackSpec {
    StackSpec::paper(WriteStrategy::Traditional, FlashMode::MlcFull)
}

/// Table 1's `[2×4]` columns: IPA-native appends on one chip in `mode`
/// (pSLC or odd-MLC).
pub fn ipa_2x4(mode: FlashMode) -> StackSpec {
    StackSpec::paper(WriteStrategy::IpaNative, mode)
}

/// The argv spellings a flag was asked for with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// [`arg`]: `--name=value` only.
    Value,
    /// [`str_arg`]: `--name=value` or `--name value`.
    Str,
    /// [`flag`]: `--name` or `--name=value`.
    Switch,
}

/// Every flag the binary has asked argv for so far, with how.
static ASKED: Mutex<Vec<(String, Ask)>> = Mutex::new(Vec::new());

fn asked() -> MutexGuard<'static, Vec<(String, Ask)>> {
    ASKED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ask(name: &str, how: Ask) {
    asked().push((name.to_string(), how));
}

fn argv() -> Vec<String> {
    std::env::args().collect()
}

/// Print a usage error and exit with status 2.
fn usage_error(program: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {program} [--<flag>=<value>]... (the binary's module docs list its flags)");
    std::process::exit(2)
}

/// Parse `--name=value` out of `args`; `default` when the flag is absent.
/// A value that does not parse is an error, never the default: a typo'd
/// `--tx=abc` must not run the full default workload.
pub fn parse_arg<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    let prefix = format!("--{name}=");
    match args.iter().find_map(|a| a.strip_prefix(&prefix)) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| {
            let expected = std::any::type_name::<T>();
            format!("invalid value {value:?} for --{name} (expected {expected})")
        }),
    }
}

/// [`parse_arg`] over the process's argv. An unparsable value prints the
/// error and a usage pointer, and exits with status 2.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    ask(name, Ask::Value);
    let args = argv();
    parse_arg(&args, name, default).unwrap_or_else(|e| usage_error(&args[0], &e))
}

/// Parse an optional string flag from argv, accepting both `--name=value`
/// and `--name value` spellings. Returns `None` when the flag is absent
/// or has no value (the next argv entry being another `--flag` does not
/// count as a value — `--csv --cap=2` must not write a file named
/// `--cap=2`).
pub fn str_arg(name: &str) -> Option<String> {
    ask(name, Ask::Str);
    let eq_prefix = format!("--{name}=");
    let bare = format!("--{name}");
    let args = argv();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq_prefix) {
            return Some(v.to_string());
        }
        if *a == bare {
            return args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
        }
    }
    None
}

/// Is a `--name` flag present in argv, in either its bare (`--name`) or
/// valued (`--name=value`) spelling?
pub fn flag(name: &str) -> bool {
    ask(name, Ask::Switch);
    let eq_prefix = format!("--{name}=");
    let bare = format!("--{name}");
    std::env::args().any(|a| a == bare || a.starts_with(&eq_prefix))
}

/// Check argv (`args[0]` is the program) against the flags `asked` for:
/// every `--name` must have been asked for, in a spelling its [`Ask`]
/// allows, and the only non-flag token is the value after a bare
/// [`Ask::Str`] flag. Names the first token that breaks the rule.
fn check_args(args: &[String], asked: &[(String, Ask)]) -> Result<(), String> {
    let mut tokens = args.iter().skip(1).peekable();
    while let Some(token) = tokens.next() {
        let Some(body) = token.strip_prefix("--") else {
            return Err(format!(
                "stray value {token:?} (spell a flag's value --name=value)"
            ));
        };
        let (name, bare) = body
            .split_once('=')
            .map_or((body, true), |(n, _)| (n, false));
        if !asked.iter().any(|(n, _)| n == name) {
            return Err(format!("unknown flag --{name}"));
        }
        let asked_as = |how| asked.contains(&(name.to_string(), how));
        if bare {
            if asked_as(Ask::Str) {
                tokens.next_if(|t| !t.starts_with("--"));
            } else if !asked_as(Ask::Switch) {
                return Err(format!("--{name} takes a value: --{name}=<value>"));
            }
        }
    }
    Ok(())
}

/// The end of a binary's parse block: argv may hold nothing but the
/// flags asked for through [`arg`], [`str_arg`] and [`flag`] so far, in
/// the spellings those accept. Anything else — an unknown name, a stray
/// value token, a bare `--name` of an [`arg`] flag — prints the
/// offending token and a usage pointer, and exits with status 2.
pub fn reject_unasked_args() {
    let args = argv();
    if let Err(e) = check_args(&args, &asked()) {
        usage_error(&args[0], &e)
    }
}

/// Relative change in percent, paper-style (negative = reduction).
pub fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (new - old) / old * 100.0
}

/// Format a signed percentage like the paper's Table 1 ("+47", "-75").
pub fn fmt_pct(p: f64) -> String {
    format!("{:+.0}", p)
}

/// Print a horizontal rule sized for our tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print one row of a fixed-width table.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<34}");
    for c in cells {
        print!("{c:>16}");
    }
    println!();
}

/// Convenience for integer cells.
pub fn n<T: Display>(v: T) -> String {
    format!("{v}")
}

/// Group digits of a count ("3 779 926" like the paper).
pub fn grouped(v: u64) -> String {
    let s = v.to_string();
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(*b as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_change() {
        assert_eq!(pct(150.0, 100.0), 50.0);
        assert_eq!(pct(25.0, 100.0), -75.0);
        assert_eq!(pct(5.0, 0.0), 0.0);
        assert_eq!(fmt_pct(-75.0), "-75");
        assert_eq!(fmt_pct(46.0), "+46");
    }

    #[test]
    fn grouping() {
        assert_eq!(grouped(3_779_926), "3 779 926");
        assert_eq!(grouped(123), "123");
        assert_eq!(grouped(1_000), "1 000");
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(tokens.iter().copied())
            .map(String::from)
            .collect()
    }

    fn asked() -> Vec<(String, Ask)> {
        [("tx", Ask::Value), ("csv", Ask::Str), ("qos", Ask::Switch)]
            .map(|(n, h)| (n.to_string(), h))
            .to_vec()
    }

    #[test]
    fn only_the_asked_flags_pass() {
        let ok = |t: &[&str]| check_args(&argv(t), &asked());
        assert_eq!(ok(&[]), Ok(()));
        assert_eq!(ok(&["--tx=300", "--qos", "--csv=a.csv"]), Ok(()), "known");
        assert_eq!(ok(&["--qos=1"]), Ok(()), "a switch's valued spelling");
        let err = ok(&["--tx=3", "--no-such-flag=1", "--bogus"]).unwrap_err();
        assert!(err.contains("--no-such-flag"), "unknown: {err}");
        let err = ok(&["--qos", "300"]).unwrap_err();
        assert!(err.contains("\"300\""), "stray value: {err}");
        let err = ok(&["--tx", "300"]).unwrap_err();
        assert!(
            err.contains("--tx=<value>"),
            "a value flag's bare spelling: {err}"
        );
    }

    #[test]
    fn a_string_flag_takes_the_next_token_as_its_value() {
        let ok = |t: &[&str]| check_args(&argv(t), &asked());
        assert_eq!(ok(&["--csv", "sweep.csv", "--tx=3"]), Ok(()));
        assert_eq!(
            ok(&["--csv", "--qos"]),
            Ok(()),
            "no value: the flag is absent"
        );
        assert!(ok(&["--csv", "a.csv", "b.csv"]).is_err(), "one value only");
    }

    #[test]
    fn parse_arg_defaults_when_absent_and_rejects_garbage() {
        let args: Vec<String> = ["bin", "--tx=300", "--secs=1.5", "--seed=abc", "--cap="]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg(&args, "tx", 7u64), Ok(300));
        assert_eq!(parse_arg(&args, "secs", 9.0f64), Ok(1.5));
        assert_eq!(parse_arg(&args, "streams", 8u32), Ok(8), "absent: default");
        let err = parse_arg(&args, "seed", 1u64).unwrap_err();
        assert!(err.contains("--seed") && err.contains("\"abc\""), "{err}");
        assert!(parse_arg(&args, "cap", 1usize).is_err(), "empty value");
        assert!(parse_arg(&args, "tx", 0u8).is_err(), "300 overflows a u8");
        // A bare `--seed` (no `=`) is a different flag spelling, not a value.
        assert_eq!(parse_arg(&["--seed".to_string()], "seed", 5u64), Ok(5));
    }
}
