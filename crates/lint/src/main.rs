//! `mbp-lint` binary: lint the workspace, print findings, gate CI.
//!
//! Exit codes: 0 clean, 1 findings or budget violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mbp-lint — zero-dependency static analysis for the mbp workspace

USAGE:
    mbp-lint [--root DIR] [--baseline FILE] [--report FILE] [--quiet]
             [--all-rules] [--graph-out BASE]

Runs the per-file rules (det, panic, float, safety, cast), then builds the
workspace call graph and runs the reach-panic / taint-det / lock-graph
analyses over it.

OPTIONS:
    --root DIR        Workspace root to scan (default: current directory)
    --baseline FILE   Waiver-budget baseline (default: <root>/lint.toml)
    --report FILE     Also write the findings report to FILE
    --quiet           Suppress the summary line when clean
    --all-rules       Apply every per-file rule to every file, ignoring the
                      repo's path-based scoping (used to check the fixtures)
    --graph-out BASE  Write BASE.json and BASE.dot call-graph artifacts
                      (witness chains included)
    -h, --help        Show this help
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut mode = mbp_lint::ScopeMode::Repo;
    let mut graph_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage_error("--report needs a value"),
            },
            "--quiet" => quiet = true,
            "--all-rules" => mode = mbp_lint::ScopeMode::AllRules,
            "--graph-out" => match args.next() {
                Some(v) => graph_out = Some(PathBuf::from(v)),
                None => return usage_error("--graph-out needs a value"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let report = match mbp_lint::run(&root, baseline.as_deref(), mode, graph_out.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mbp-lint: error: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = report.render();
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("mbp-lint: error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        if !quiet {
            print!("{rendered}");
        }
        ExitCode::SUCCESS
    } else {
        print!("{rendered}");
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mbp-lint: error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
