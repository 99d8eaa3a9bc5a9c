//! # `ipa-bench` — the experiment harness
//!
//! [`experiments`] computes every paper experiment: each core runs its
//! stacks and returns typed rows, or a [`experiments::RunError`] naming
//! the experiment, workload and stack that failed. One binary per
//! table/figure of the paper renders those rows; its flags are one of
//! the tables in [`flags`]:
//!
//! | binary            | paper artifact                                  | flags                      |
//! |-------------------|-------------------------------------------------|----------------------------|
//! | `table1`          | Table 1 — TPC-B, 0×0 vs 2×4 pSLC vs 2×4 odd-MLC | [`flags::TABLE1`]          |
//! | `fig1_write_amp`  | Figure 1 — DBMS write amplification             | [`flags::FIG1_WRITE_AMP`]  |
//! | `fig2_ispp`       | Figure 2 — ISPP & erase-before-overwrite        | [`flags::NONE`]            |
//! | `fig3_layout`     | Figure 3 — page format & OOB ECC layout         | [`flags::NONE`]            |
//! | `headline_claims` | §1/abstract — invalidations/GC/throughput/life  | [`flags::HEADLINE_CLAIMS`] |
//! | `ipa_vs_ipl`      | §1 — IPA vs In-Page Logging (trace replay)      | [`flags::IPA_VS_IPL`]      |
//! | `interference`    | §3 — flash modes & program interference         | [`flags::INTERFERENCE`]    |
//! | `nm_sweep`        | ablation — N×M scheme sweep                     | [`flags::NM_SWEEP`]        |
//! | `nop_sweep`       | ablation — NOP (reprogram budget) sensitivity   | [`flags::NOP_SWEEP`]       |
//! | `repro_all`       | every experiment's shape checked, PASS/FAIL     | [`flags::REPRO_ALL`]       |
//! | `parallel_sweep`  | the 4ch×2d stack's scaling and maintenance      | [`flags::PARALLEL_SWEEP`]  |
//!
//! Every binary prints fixed-width tables to stdout and is deterministic
//! for a given seed. Its argv is checked against its flag table before
//! anything runs: an unknown flag name, a stray value token (the `300` in
//! `--tx 300`) and a `--flag=value` whose value does not parse are usage
//! errors (exit status 2), never a silent default. A run that fails
//! prints one `error:` line and exits 1, as does a failed acceptance bar.

pub mod experiments;
pub mod sweep_csv;

use std::process::ExitCode;
use std::str::FromStr;

use experiments::RunError;
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

/// How a flag may be spelled on the command line.
#[derive(Debug, Clone, Copy)]
pub enum Spelling {
    /// `--name=value` only; an absent flag takes its default.
    Value,
    /// A string: `--name=value` or `--name value`; an absent one has none.
    Str,
    /// `--name` (the default value) or `--name=value`; absent, it is off.
    Switch,
}

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    spelling: Spelling,
    /// The value of an absent [`Spelling::Value`] flag or of a bare
    /// [`Spelling::Switch`]; empty where there is none.
    default: &'static str,
}

const fn flag(name: &'static str, spelling: Spelling, default: &'static str) -> Flag {
    Flag {
        name,
        spelling,
        default,
    }
}

/// Every binary's declared flags: the whole command line it accepts.
pub mod flags {
    use super::Spelling::{Str, Switch, Value};
    use super::{flag, Flag};

    /// The workload RNG seed, 0x7C_B5EED.
    const SEED: Flag = flag("seed", Value, "130768621");

    pub const TABLE1: &[Flag] = &[flag("secs", Value, "20"), flag("scale", Value, "1"), SEED];
    pub const HEADLINE_CLAIMS: &[Flag] = &[flag("secs", Value, "10"), SEED];
    pub const NM_SWEEP: &[Flag] = &[flag("secs", Value, "6"), SEED];
    pub const NOP_SWEEP: &[Flag] = &[flag("secs", Value, "6"), SEED];
    pub const REPRO_ALL: &[Flag] = &[flag("secs", Value, "8"), SEED];
    pub const FIG1_WRITE_AMP: &[Flag] = &[flag("tx", Value, "6000"), SEED];
    pub const IPA_VS_IPL: &[Flag] = &[flag("tx", Value, "6000"), SEED];
    pub const INTERFERENCE: &[Flag] = &[flag("rounds", Value, "300")];
    /// `fig2_ispp` and `fig3_layout` take no flags.
    pub const NONE: &[Flag] = &[];
    /// `parallel_sweep`'s sections and sizes; its module docs say what
    /// each switches on. `maint-tx` defaults to 16 × `tx`.
    pub const PARALLEL_SWEEP: &[Flag] = &[
        flag("tx", Value, "1200"),
        flag("streams", Value, "8"),
        SEED,
        flag("scale", Value, "1"),
        flag("maint-tx", Value, ""),
        flag("cap", Value, "1"),
        flag("planes", Value, "1"),
        flag("readahead", Switch, "8"),
        flag("wal-stripe", Switch, "4"),
        flag("wal-group", Value, "1"),
        flag("qos", Switch, ""),
        flag("heat", Switch, "0.99"),
        flag("fleet", Switch, ""),
        flag("fleet-tenants", Value, "8"),
        flag("fleet-rounds", Value, "10"),
        flag("threads", Switch, "4"),
        flag("trace", Str, ""),
        flag("metrics", Str, ""),
        flag("csv", Str, ""),
    ];
}

/// Print a usage error and exit with status 2.
fn usage_error(program: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {program} [--<flag>=<value>]... (the flags: `ipa_bench::flags`)");
    std::process::exit(2)
}

/// The value of `flag` in `args`: `--name=value`, else its default. A
/// value that does not parse is an error, never the default: a typo'd
/// `--tx=abc` must not run the full default workload.
fn parse_arg<T: FromStr>(args: &[String], flag: &Flag) -> Result<T, String> {
    let (name, prefix) = (flag.name, format!("--{}=", flag.name));
    let value = args.iter().find_map(|a| a.strip_prefix(&prefix));
    let value = value.unwrap_or(flag.default);
    value.parse().map_err(|_| {
        let expected = std::any::type_name::<T>();
        format!("invalid value {value:?} for --{name} (expected {expected})")
    })
}

/// Check `args` (`args[0]` is the program) against `table`: every
/// `--name` must be declared there, in a spelling its [`Spelling`]
/// allows, and the only non-flag token is the value after a bare
/// [`Spelling::Str`] flag. Names the first token that breaks the rule.
fn check_args(args: &[String], table: &[Flag]) -> Result<(), String> {
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
        let Some(flag) = table.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag --{name}"));
        };
        match (bare, flag.spelling) {
            (true, Spelling::Str) => drop(tokens.next_if(|t| !t.starts_with("--"))),
            (true, Spelling::Value) => {
                return Err(format!("--{name} takes a value: --{name}=<value>"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// A binary's argv, checked against its flag table.
pub struct Args {
    argv: Vec<String>,
    table: &'static [Flag],
}

impl Args {
    /// Check the process's argv against `table` before anything runs:
    /// any token the table does not allow prints itself and a usage
    /// pointer, and exits with status 2.
    pub fn from_env(table: &'static [Flag]) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        match Args::new(argv.clone(), table) {
            Ok(args) => args,
            Err(e) => usage_error(&argv[0], &e),
        }
    }

    /// [`Args::from_env`] over a given argv, with the error returned.
    pub fn new(argv: Vec<String>, table: &'static [Flag]) -> Result<Args, String> {
        check_args(&argv, table)?;
        Ok(Args { argv, table })
    }

    fn flag(&self, name: &str) -> &'static Flag {
        let declared = self.table.iter().find(|f| f.name == name);
        declared.unwrap_or_else(|| panic!("--{name} is not in the binary's flag table"))
    }

    /// `--name=value` parsed, else the flag's default; a value that does
    /// not parse exits with status 2.
    pub fn value<T: FromStr>(&self, name: &str) -> T {
        parse_arg(&self.argv, self.flag(name)).unwrap_or_else(|e| usage_error(&self.argv[0], &e))
    }

    /// Where `--name` is in argv, with the value of a `--name=value`.
    fn find(&self, name: &str) -> Option<(usize, Option<&str>)> {
        let name = self.flag(name).name;
        self.argv.iter().enumerate().skip(1).find_map(|(i, a)| {
            let rest = a.strip_prefix("--")?.strip_prefix(name)?;
            match rest.strip_prefix('=') {
                Some(value) => Some((i, Some(value))),
                None => rest.is_empty().then_some((i, None)),
            }
        })
    }

    /// Is `--name` on the command line, bare or with a value?
    pub fn is_set(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// [`Args::value`] when the flag is on the command line, else `None`.
    pub fn given<T: FromStr>(&self, name: &str) -> Option<T> {
        self.is_set(name).then(|| self.value(name))
    }

    /// A string flag's value, in either spelling. `None` when the flag is
    /// absent or has no value (the next argv entry being another `--flag`
    /// does not count as a value — `--csv --cap=2` must not write a file
    /// named `--cap=2`).
    pub fn string(&self, name: &str) -> Option<String> {
        match self.find(name)? {
            (_, Some(value)) => Some(value.to_string()),
            (i, None) => self
                .argv
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned(),
        }
    }
}

/// One acceptance check: whether it held, and what it measured.
pub struct Verdict {
    pub pass: bool,
    pub what: String,
}

impl Verdict {
    pub fn new(pass: bool, what: String) -> Verdict {
        Verdict { pass, what }
    }

    /// "`what` must reach `floor`×".
    pub fn at_least(value: f64, floor: f64, what: &str) -> Verdict {
        let cmp = if value >= floor { ">=" } else { "<" };
        let what = format!("{what} {value:.2}x {cmp} {floor:.1}x");
        Verdict::new(value >= floor, what)
    }

    pub fn mark(&self) -> &'static str {
        if self.pass {
            "PASS"
        } else {
            "FAIL"
        }
    }
}

/// A binary's exit status: 0 when it ran and every verdict it checked
/// held, 1 when one failed, and 1 after printing the `error:` line when a
/// run failed.
pub fn exit_status(outcome: Result<bool, RunError>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
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

    const TABLE: &[Flag] = &[
        flag("tx", Spelling::Value, "7"),
        flag("csv", Spelling::Str, ""),
        flag("qos", Spelling::Switch, ""),
    ];

    #[test]
    fn only_the_asked_flags_pass() {
        let ok = |t: &[&str]| check_args(&argv(t), TABLE);
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
        let ok = |t: &[&str]| check_args(&argv(t), TABLE);
        assert_eq!(ok(&["--csv", "sweep.csv", "--tx=3"]), Ok(()));
        assert_eq!(
            ok(&["--csv", "--qos"]),
            Ok(()),
            "no value: the flag is absent"
        );
        assert!(ok(&["--csv", "a.csv", "b.csv"]).is_err(), "one value only");
        let args = Args::new(argv(&["--csv", "--qos"]), TABLE).unwrap();
        assert_eq!((args.string("csv"), args.is_set("qos")), (None, true));
        let args = Args::new(argv(&["--csv", "sweep.csv"]), TABLE).unwrap();
        assert_eq!(args.string("csv").as_deref(), Some("sweep.csv"));
    }

    #[test]
    fn parse_arg_defaults_when_absent_and_rejects_garbage() {
        let args: Vec<String> = ["bin", "--tx=300", "--secs=1.5", "--seed=abc", "--cap="]
            .map(String::from)
            .to_vec();
        assert_eq!(
            parse_arg(&args, &flag("tx", Spelling::Value, "7")),
            Ok(300u64)
        );
        assert_eq!(
            parse_arg(&args, &flag("secs", Spelling::Value, "9")),
            Ok(1.5f64)
        );
        let absent = parse_arg(&args, &flag("streams", Spelling::Value, "8"));
        assert_eq!(absent, Ok(8u32), "absent: default");
        let err = parse_arg::<u64>(&args, &flag("seed", Spelling::Value, "1")).unwrap_err();
        assert!(err.contains("--seed") && err.contains("\"abc\""), "{err}");
        assert!(
            parse_arg::<usize>(&args, &flag("cap", Spelling::Value, "1")).is_err(),
            "empty value"
        );
        assert!(
            parse_arg::<u8>(&args, &flag("tx", Spelling::Value, "0")).is_err(),
            "300 overflows a u8"
        );
        // A bare `--seed` (no `=`) is a different flag spelling, not a value.
        let bare = parse_arg(&["--seed".to_string()], &flag("seed", Spelling::Value, "5"));
        assert_eq!(bare, Ok(5u64));
    }

    /// Each binary accepts exactly the flags it always has; a new flag is
    /// a new table entry and a new line here.
    #[test]
    fn every_binary_declares_exactly_its_flags() {
        let names = |t: &[Flag]| t.iter().map(|f| f.name).collect::<Vec<_>>().join(" ");
        let sweep = "tx streams seed scale maint-tx cap planes readahead wal-stripe wal-group \
                     qos heat fleet fleet-tenants fleet-rounds threads trace metrics csv";
        let expected = [
            (flags::TABLE1, "secs scale seed"),
            (flags::HEADLINE_CLAIMS, "secs seed"),
            (flags::NM_SWEEP, "secs seed"),
            (flags::NOP_SWEEP, "secs seed"),
            (flags::REPRO_ALL, "secs seed"),
            (flags::FIG1_WRITE_AMP, "tx seed"),
            (flags::IPA_VS_IPL, "tx seed"),
            (flags::INTERFERENCE, "rounds"),
            (flags::NONE, ""),
            (flags::PARALLEL_SWEEP, sweep),
        ];
        for (table, want) in expected {
            assert_eq!(names(table), want);
            for f in table.iter().filter(|f| !f.default.is_empty()) {
                assert!(f.default.parse::<f64>().is_ok(), "--{} default", f.name);
            }
        }
        assert_eq!(flags::PARALLEL_SWEEP.len(), 19);
    }
}
