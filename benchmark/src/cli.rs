//! Command line: `--workload <name> [--seed N] [--seconds N]
//! [--trace [0|1]] [--rounds N] [--scale F] [--out-dir DIR]`, or
//! `--compare a.json b.json`.

use crate::compare;
use crate::run::{run_workload, Options};
use crate::spec;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: --workload <device_direct|serve_short|compile_cold|cnn_frames> \
[--seed N] [--seconds N] [--trace [0|1]] [--rounds N] [--scale F] [--out-dir DIR]
       --compare a.json b.json";

/// What the arguments ask for.
#[derive(Debug)]
pub enum Command {
    /// Run one workload.
    Run(Options),
    /// Compare two saved runs.
    Compare {
        /// Baseline run.
        a: PathBuf,
        /// Candidate run.
        b: PathBuf,
    },
}

fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a number"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// What is wrong with them.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut options = Options::default();
    let mut compare = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value("a name")?,
            "--seed" => options.seed = number(flag, value("a number")?)?,
            "--seconds" => options.seconds = number(flag, value("a number")?)?,
            "--rounds" => options.rounds = Some(number(flag, value("a number")?)?),
            "--scale" => options.scale = number(flag, value("a number")?)?,
            "--out-dir" => options.out_dir = value("a directory")?.into(),
            "--compare" => compare = Some((value("two files")?, value("two files")?)),
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare {
            a: a.into(),
            b: b.into(),
        });
    }
    if options.workload.is_empty() {
        return Err("no --workload given".into());
    }
    if !(options.scale > 0.0 && options.scale.is_finite()) {
        return Err("--scale must be positive".into());
    }
    if options.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    Ok(Command::Run(options))
}

/// Runs the command line; the exit code is non-zero on bad arguments, a
/// wrong output, a failed job, or a metric worse than its bound.
#[must_use]
pub fn main(args: Vec<String>) -> ExitCode {
    match parse(&args) {
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare { a, b }) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(options)) => match run_workload(&options) {
            Err(why) => {
                eprintln!("{why}\n{USAGE}");
                ExitCode::from(2)
            }
            Ok(report) => {
                print!("{}", report.lines());
                for problem in &report.problems {
                    eprintln!("WRONG: {problem}");
                }
                let wanted = if options.trace {
                    spec::PER_LAYER
                } else {
                    spec::END_TO_END
                };
                println!("{}", report.result_line(wanted));
                if report.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let Command::Run(o) = parse(&args(
            "--workload serve_short --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap() else {
            panic!("expected a run")
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve_short", 7, 10, false)
        );
        let Command::Run(o) = parse(&args("--workload cnn_frames --trace 1 --seed 3")).unwrap()
        else {
            panic!("expected a run")
        };
        assert!(o.trace);
        assert_eq!(o.seed, 3);
        // Bare `--trace`, as in the README.
        let Command::Run(o) = parse(&args("--workload cnn_frames --trace --rounds 1")).unwrap()
        else {
            panic!("expected a run")
        };
        assert!(o.trace);
        assert_eq!(o.rounds, Some(1));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args("")).is_err());
        assert!(parse(&args("--workload")).is_err());
        assert!(parse(&args("--workload x --seed many")).is_err());
        assert!(parse(&args("--workload x --scale 0")).is_err());
        assert!(parse(&args("--workload x --rounds 0")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        assert!(matches!(
            parse(&args("--compare a.json b.json")).unwrap(),
            Command::Compare { .. }
        ));
    }
}
