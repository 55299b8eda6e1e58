//! Strict argument parsing for the `reproduce` harness.
//!
//! Every flag is validated: an unknown `--flag` (or a typo like `--seeed`)
//! is an error with a usage message instead of a silent fallback to
//! defaults, and flags that need values fail loudly when the value is
//! missing or malformed.

use ustencil_core::SimdPolicy;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage: reproduce <command> [options]

commands:
  table1 | fig8 | fig11 | fig12 | fig13 | fig14 | all
                      regenerate one exhibit (or every exhibit)
  profile             run an instrumented workload and print the phase and
                      load-imbalance report
  plan                compile an evaluation plan per mesh size, apply it to
                      --timesteps synthetic fields, and report the speedup
                      over direct per-element runs
  serve               drive the multi-tenant plan-cache service with seeded
                      zipf traffic (--clients threads, --requests total) and
                      report throughput and p50/p99 latency, cached vs a
                      naive compile-per-request baseline
  amr                 run a dG field with a moving refinement/displacement
                      front for --frames frames: frame 0 compiles the plan,
                      every later frame revalidates it by incremental patch
                      and reports patch-vs-full-compile cost
  checkjson <path>    validate a --json report file (used by CI)

options:
  --sizes N,N,..      mesh sizes in triangles (default: the paper ladder)
  --ranks N,N,..      run fig14 rank-sharded at each rank count (per-element
                      evaluation with explicit halo exchange; emits per-rank
                      comms ledgers into the JSON report)
  --seed S            mesh-generation seed (default 2013)
  --timesteps T       synthetic fields a `plan` run applies (default 8)
  --clients N         client threads a `serve` run spawns (default 8)
  --requests M        total requests across a `serve` run's clients
                      (default 200)
  --frames F          frames an `amr` run advances the moving front
                      (default 4)
  --simd P            SIMD dispatch policy of the evaluation kernels:
                      auto (widest ISA the host supports, the default),
                      scalar (the bitwise-reproducible fallback), f64x4
                      (force AVX2+FMA), f64x8 (force AVX-512); a forced
                      width falls back to scalar when the host lacks it
  --full              lift the size ladder and degree caps to paper scale
  --json <path>       also write the structured RunReport as JSON
  --help, -h          print this message";

/// Commands `reproduce` accepts.
pub const COMMANDS: [&str; 13] = [
    "table1",
    "fig8",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "all",
    "profile",
    "plan",
    "serve",
    "amr",
    "checkjson",
    "help",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// The subcommand (default `"all"`).
    pub command: String,
    /// Explicit `--sizes` list, when given.
    pub sizes: Option<Vec<usize>>,
    /// Explicit `--ranks` list, when given (fig14 rank scaling).
    pub ranks: Option<Vec<usize>>,
    /// Mesh-generation seed.
    pub seed: u64,
    /// Synthetic timesteps a `plan` run applies.
    pub timesteps: usize,
    /// Client threads of a `serve` run.
    pub clients: usize,
    /// Total requests across a `serve` run's clients.
    pub requests: usize,
    /// Frames an `amr` run advances the moving front.
    pub frames: usize,
    /// SIMD dispatch policy of the evaluation kernels (`--simd`).
    pub simd: SimdPolicy,
    /// Whether `--full` was given.
    pub full: bool,
    /// `--json` output path, when given.
    pub json: Option<String>,
    /// The positional path argument of `checkjson`.
    pub path_arg: Option<String>,
    /// Whether `--help`/`-h` was given.
    pub help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            command: "all".to_string(),
            sizes: None,
            ranks: None,
            seed: 2013,
            timesteps: 8,
            clients: 8,
            requests: 200,
            frames: 4,
            simd: SimdPolicy::Auto,
            full: false,
            json: None,
            path_arg: None,
            help: false,
        }
    }
}

/// Parses the argument list (without the program name). Errors carry a
/// human-readable message ending in the usage text.
pub fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => opts.help = true,
            "--full" => opts.full = true,
            "--sizes" => {
                let list = value_of(&mut it, "--sizes")?;
                let sizes = list
                    .split(',')
                    .map(|s| {
                        s.parse::<usize>()
                            .map_err(|_| format!("--sizes entry '{s}' is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if sizes.is_empty() {
                    return Err("--sizes needs at least one size".to_string());
                }
                opts.sizes = Some(sizes);
            }
            "--ranks" => {
                let list = value_of(&mut it, "--ranks")?;
                let ranks =
                    list.split(',')
                        .map(|s| {
                            s.parse::<usize>().ok().filter(|&r| r > 0).ok_or_else(|| {
                                format!("--ranks entry '{s}' is not a positive integer")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                if ranks.is_empty() {
                    return Err("--ranks needs at least one rank count".to_string());
                }
                opts.ranks = Some(ranks);
            }
            "--seed" => {
                let v = value_of(&mut it, "--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed value '{v}' is not an integer"))?;
            }
            "--timesteps" => opts.timesteps = positive(&mut it, "--timesteps")?,
            "--clients" => opts.clients = positive(&mut it, "--clients")?,
            "--requests" => opts.requests = positive(&mut it, "--requests")?,
            "--frames" => opts.frames = positive(&mut it, "--frames")?,
            "--simd" => {
                let v = value_of(&mut it, "--simd")?;
                opts.simd = SimdPolicy::from_label(v).ok_or_else(|| {
                    format!("--simd value '{v}' is not one of auto, scalar, f64x4, f64x8")
                })?;
            }
            "--json" => {
                opts.json = Some(value_of(&mut it, "--json")?.to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag '{flag}'\n\n{USAGE}"));
            }
            positional => positionals.push(positional.to_string()),
        }
    }

    let mut positionals = positionals.into_iter();
    if let Some(command) = positionals.next() {
        if !COMMANDS.contains(&command.as_str()) {
            return Err(format!("unknown command '{command}'\n\n{USAGE}"));
        }
        opts.command = command;
    }
    if opts.command == "help" {
        opts.help = true;
    }
    if opts.command == "checkjson" {
        opts.path_arg = Some(
            positionals
                .next()
                .ok_or_else(|| format!("checkjson needs a report path\n\n{USAGE}"))?,
        );
    }
    if let Some(extra) = positionals.next() {
        return Err(format!("unexpected argument '{extra}'\n\n{USAGE}"));
    }
    Ok(opts)
}

fn value_of<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value\n\n{USAGE}")),
    }
}

/// The positive integer that follows `flag`.
fn positive(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let v = value_of(it, flag)?;
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} value '{v}' is not a positive integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&owned)
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&[
            "table1",
            "--sizes",
            "1000,4000",
            "--seed",
            "7",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(opts.command, "table1");
        assert_eq!(opts.sizes, Some(vec![1000, 4000]));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn misspelled_flag_is_rejected_with_usage() {
        // The historical bug: `--seeed 7` silently ran with the default
        // seed. It must now fail loudly.
        let err = parse(&["table1", "--seeed", "7"]).unwrap_err();
        assert!(err.contains("unknown flag '--seeed'"), "{err}");
        assert!(err.contains("usage:"), "error must include usage: {err}");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = parse(&["tabel1"]).unwrap_err();
        assert!(err.contains("unknown command 'tabel1'"), "{err}");
    }

    #[test]
    fn missing_and_malformed_values_are_rejected() {
        assert!(parse(&["--sizes"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--sizes", "--full"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--sizes", "12x"])
            .unwrap_err()
            .contains("not an integer"));
        assert!(parse(&["--seed", "abc"])
            .unwrap_err()
            .contains("not an integer"));
        assert!(parse(&["--timesteps", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--timesteps", "x"])
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn plan_command_with_timesteps() {
        let opts = parse(&["plan", "--timesteps", "16", "--sizes", "4000"]).unwrap();
        assert_eq!(opts.command, "plan");
        assert_eq!(opts.timesteps, 16);
        assert_eq!(opts.sizes, Some(vec![4000]));
        // Default when the flag is absent.
        assert_eq!(parse(&["plan"]).unwrap().timesteps, 8);
    }

    #[test]
    fn checkjson_takes_exactly_one_path() {
        let opts = parse(&["checkjson", "out.json"]).unwrap();
        assert_eq!(opts.path_arg.as_deref(), Some("out.json"));
        assert!(parse(&["checkjson"]).unwrap_err().contains("report path"));
        assert!(parse(&["checkjson", "a.json", "b.json"])
            .unwrap_err()
            .contains("unexpected argument"));
        // Other commands take no positionals at all.
        assert!(parse(&["table1", "extra"])
            .unwrap_err()
            .contains("unexpected argument 'extra'"));
    }

    #[test]
    fn ranks_flag() {
        let opts = parse(&["fig14", "--ranks", "1,2,4,8"]).unwrap();
        assert_eq!(opts.command, "fig14");
        assert_eq!(opts.ranks, Some(vec![1, 2, 4, 8]));
        assert_eq!(parse(&["fig14"]).unwrap().ranks, None);
        assert!(parse(&["--ranks"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--ranks", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--ranks", "2x"])
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn serve_flags() {
        let opts = parse(&[
            "serve",
            "--clients",
            "12",
            "--requests",
            "400",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(opts.command, "serve");
        assert_eq!(opts.clients, 12);
        assert_eq!(opts.requests, 400);
        assert_eq!(opts.seed, 9);
        // Defaults when the flags are absent.
        let opts = parse(&["serve"]).unwrap();
        assert_eq!(opts.clients, 8);
        assert_eq!(opts.requests, 200);
        assert!(parse(&["serve", "--clients", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["serve", "--requests", "x"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["serve", "--clients"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn amr_flags() {
        let opts = parse(&["amr", "--frames", "6", "--sizes", "4000"]).unwrap();
        assert_eq!(opts.command, "amr");
        assert_eq!(opts.frames, 6);
        assert_eq!(opts.sizes, Some(vec![4000]));
        // Defaults when the flags are absent.
        assert_eq!(parse(&["amr"]).unwrap().frames, 4);
        assert!(parse(&["amr", "--frames", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["amr", "--frames", "x"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["amr", "--frames"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn simd_flag() {
        use ustencil_core::SimdWidth;
        // Every label round-trips through the flag...
        for policy in SimdPolicy::ALL {
            let opts = parse(&["table1", "--simd", policy.label()]).unwrap();
            assert_eq!(opts.simd, policy);
        }
        let opts = parse(&["plan", "--simd", "f64x4"]).unwrap();
        assert_eq!(opts.simd, SimdPolicy::Forced(SimdWidth::F64x4));
        // ...the default is auto, and junk fails loudly.
        assert_eq!(parse(&["table1"]).unwrap().simd, SimdPolicy::Auto);
        assert!(parse(&["table1", "--simd", "avx99"])
            .unwrap_err()
            .contains("not one of"));
        assert!(parse(&["table1", "--simd"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn timeline_flag() {
        // The trace-event timeline export is retired: its flag is unknown.
        assert!(
            parse(&["fig14", "--ranks", "1,2", "--timeline", "out.trace.json"])
                .unwrap_err()
                .contains("unknown flag '--timeline'")
        );
    }

    #[test]
    fn help_variants() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        assert!(parse(&["help"]).unwrap().help);
    }

    #[test]
    fn flags_may_precede_the_command() {
        let opts = parse(&["--seed", "42", "fig8"]).unwrap();
        assert_eq!(opts.command, "fig8");
        assert_eq!(opts.seed, 42);
    }
}
