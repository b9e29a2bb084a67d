//! The DDMCPP command-line tool.
//!
//! ```text
//! ddmcpp --target soft|sim|cell [-o OUT.rs] INPUT.ddm
//! ddmcpp --dot INPUT.ddm            # print the synchronization graph
//! ddmcpp --check INPUT.ddm          # parse + validate only
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use tflux_ddmcpp::{lower, parse, preprocess, Backend};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ddmcpp --target soft|sim|cell [-o OUT.rs] INPUT.ddm\n       ddmcpp --dot INPUT.ddm\n       ddmcpp --check INPUT.ddm"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<Backend> = None;
    let mut out: Option<String> = None;
    let mut input: Option<String> = None;
    let mut dot = false;
    let mut check = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--target" | "-t" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    return usage();
                };
                let Some(b) = Backend::from_name(name) else {
                    eprintln!("unknown target `{name}`");
                    return usage();
                };
                target = Some(b);
            }
            "-o" | "--output" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return usage();
                };
                out = Some(path.clone());
            }
            "--dot" => dot = true,
            "--check" => check = true,
            "-h" | "--help" => return usage(),
            other if !other.starts_with('-') => input = Some(other.to_string()),
            _ => return usage(),
        }
        i += 1;
    }

    let Some(input) = input else {
        return usage();
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ddmcpp: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if check || dot {
        let module = match parse(&source) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("ddmcpp: {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lowered = match lower::to_program(&module) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ddmcpp: {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if dot {
            print!("{}", tflux_core::to_dot(&lowered));
        } else {
            eprintln!(
                "ddmcpp: {input}: OK ({} blocks, {} threads, {} instances)",
                module.blocks.len(),
                module.thread_count(),
                lowered.total_instances()
            );
            for lint in tflux_core::lints(&lowered) {
                eprintln!("ddmcpp: {input}: warning: {lint}");
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(target) = target else {
        eprintln!("ddmcpp: missing --target");
        return usage();
    };
    match preprocess(&source, target) {
        Ok(code) => {
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, code) {
                        eprintln!("ddmcpp: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("ddmcpp: wrote {path}");
                }
                None => {
                    let mut stdout = std::io::stdout().lock();
                    let _ = stdout.write_all(code.as_bytes());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ddmcpp: {input}: {e}");
            ExitCode::FAILURE
        }
    }
}
