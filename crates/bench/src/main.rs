//! Runs experiments from [`vrd_bench::registry::REGISTRY`] by name:
//! `cargo run --release -p vrd-bench -- <name>... [--quick]`.
//!
//! Each rendering is printed as it finishes; experiments that own artefacts
//! write them to the working directory. Exit status 2 for an unknown name
//! or flag, 1 if an artefact could not be written or an acceptance gate
//! failed (after every named experiment has run), 0 otherwise.

use std::process::ExitCode;
use vrd_bench::registry::{parse_args, Output, Session};

/// Prints, writes and gates one experiment's output; `false` on failure.
fn emit(name: &str, out: &Output) -> bool {
    println!("{}", out.text);
    let mut ok = true;
    for (path, contents) in &out.files {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("{name}: could not write {path}: {e}");
            ok = false;
        }
    }
    for failure in &out.failures {
        eprintln!("{name}: acceptance check failed: {failure}");
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let (scale, rows) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut session = Session::new(scale);
    let mut ok = true;
    for (name, runner) in rows {
        ok &= emit(name, &session.run(*runner));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
