//! Command-line grammar. Every malformed argument is a typed [`CliError`];
//! `main` prints it and exits with code 2, never a panic.

use std::fmt;

/// The three workloads (see the package README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 7000-user run of the paper's 1/4/1/4 chain, sinks off, one
    /// worker: the hot path on a shallow queue.
    RunSerial,
    /// The Fig. 5 over-allocation grid through plan → executor → store →
    /// report, with every observability sink armed.
    SweepObserved,
    /// One million sessions on 1/8/1/8 with two requested workers: a deep
    /// queue, staged arrivals, real shard rounds, memory as the limit.
    Sessions1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RunSerial,
        Workload::SweepObserved,
        Workload::Sessions1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunSerial => "run-serial",
            Workload::SweepObserved => "sweep-observed",
            Workload::Sessions1m => "sessions-1m",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, CliError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| CliError::UnknownWorkload(s.to_string()))
    }
}

/// What went wrong on the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    MissingFlag(&'static str),
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
    BadRange(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(s) => write!(f, "unknown argument '{s}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::MissingFlag(flag) => write!(f, "{flag} is required"),
            CliError::UnknownWorkload(s) => write!(
                f,
                "unknown workload '{s}' (one of: run-serial, sweep-observed, sessions-1m)"
            ),
            CliError::BadSeed(s) => write!(f, "--seed '{s}' is not a whole number in 0..2^64"),
            CliError::BadSeconds(s) => write!(f, "--seconds '{s}' is not a whole number 1..=600"),
            CliError::BadTrace(s) => write!(f, "--trace '{s}' must be 0 or 1"),
            CliError::BadRange(s) => write!(f, "--seeds '{s}' must be FROM..TO with FROM <= TO"),
        }
    }
}

impl std::error::Error for CliError {}

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Measure a workload for `seconds` in fresh child processes and print
    /// the result line (the benchmark's public interface).
    Bench {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One repetition in this process (spawned by `Bench`).
    Child {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
    /// Print the output digests to pin for a range of seeds.
    Pin {
        workload: Workload,
        from: u64,
        to: u64,
    },
}

pub fn parse_seed(s: &str) -> Result<u64, CliError> {
    s.parse().map_err(|_| CliError::BadSeed(s.to_string()))
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("child") => ("child", &args[1..]),
        Some("pin") => ("pin", &args[1..]),
        _ => ("bench", args),
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut traced = false;
    let mut range = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &'static str| it.next().ok_or(CliError::MissingValue(name));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value("--workload")?)?),
            "--seed" => seed = Some(parse_seed(value("--seed")?)?),
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| CliError::BadSeconds(v.clone()))?,
                );
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(CliError::BadTrace(other.to_string())),
                })
            }
            "--traced" if mode == "child" => traced = true,
            "--seeds" if mode == "pin" => {
                let v = value("--seeds")?;
                let bad = || CliError::BadRange(v.clone());
                let (a, b) = v.split_once("..").ok_or_else(bad)?;
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                if a > b {
                    return Err(bad());
                }
                range = Some((a, b));
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    let workload = workload.ok_or(CliError::MissingFlag("--workload"))?;
    match mode {
        "child" => Ok(Command::Child {
            workload,
            seed: seed.ok_or(CliError::MissingFlag("--seed"))?,
            traced,
        }),
        "pin" => {
            let (from, to) = range.ok_or(CliError::MissingFlag("--seeds"))?;
            Ok(Command::Pin { workload, from, to })
        }
        _ => Ok(Command::Bench {
            workload,
            seed: seed.ok_or(CliError::MissingFlag("--seed"))?,
            seconds: seconds.ok_or(CliError::MissingFlag("--seconds"))?,
            trace: trace.unwrap_or(false),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_bench_interface() {
        let cmd = parse(&args(
            "--workload run-serial --seed 7 --seconds 20 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Bench {
                workload: Workload::RunSerial,
                seed: 7,
                seconds: 20,
                trace: true
            })
        );
    }

    #[test]
    fn bad_seed_is_a_typed_error() {
        for bad in ["-1", "x", "1.5", "18446744073709551616", ""] {
            let a = vec![
                "--workload".to_string(),
                "run-serial".to_string(),
                "--seed".to_string(),
                bad.to_string(),
                "--seconds".to_string(),
                "5".to_string(),
            ];
            assert_eq!(parse(&a), Err(CliError::BadSeed(bad.to_string())), "{bad}");
        }
        assert_eq!(
            parse(&args("--workload run-serial --seconds 5 --seed")),
            Err(CliError::MissingValue("--seed"))
        );
    }

    #[test]
    fn other_bad_arguments_are_typed_errors() {
        assert!(matches!(
            parse(&args("--workload nope --seed 1 --seconds 5")),
            Err(CliError::UnknownWorkload(_))
        ));
        assert!(matches!(
            parse(&args("--workload run-serial --seed 1 --seconds 0")),
            Err(CliError::BadSeconds(_))
        ));
        assert!(matches!(
            parse(&args(
                "--workload run-serial --seed 1 --seconds 5 --trace 2"
            )),
            Err(CliError::BadTrace(_))
        ));
        assert!(matches!(
            parse(&args("--workload run-serial --seed 1")),
            Err(CliError::MissingFlag("--seconds"))
        ));
        assert!(matches!(
            parse(&args("--workload run-serial --seed 1 --seconds 5 --traced")),
            Err(CliError::UnknownFlag(_))
        ));
        assert!(matches!(
            parse(&args("pin --workload run-serial --seeds 5..1")),
            Err(CliError::BadRange(_))
        ));
    }

    #[test]
    fn parses_child_and_pin_modes() {
        assert_eq!(
            parse(&args("child --workload sessions-1m --seed 3 --traced")),
            Ok(Command::Child {
                workload: Workload::Sessions1m,
                seed: 3,
                traced: true
            })
        );
        assert_eq!(
            parse(&args("pin --workload sweep-observed --seeds 0..9")),
            Ok(Command::Pin {
                workload: Workload::SweepObserved,
                from: 0,
                to: 9
            })
        );
    }
}
