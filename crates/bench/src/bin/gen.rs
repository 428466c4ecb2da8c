//! Generates a benchmark program and writes it as an `LBRC` container
//! (class-file bundle) or an `LBRS` container (stackvm module).
//!
//! ```text
//! gen --out bench.lbrc [--format classfile|stackvm] [--seed N]
//!     [--classes N] [--interfaces N] [--functions N] [--globals N]
//!     [--decompiler a|b|c|all] [--disasm]
//! ```

#![forbid(unsafe_code)]

use lbr_classfile::{disassemble_program, program_byte_size, write_program};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_stackvm::{module_byte_size, write_module, StackBugSet, StackOracle};
use lbr_workload::{generate, generate_stack, StackWorkloadConfig, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut format = "classfile".to_owned();
    let mut config = WorkloadConfig::default();
    let mut stack_config = StackWorkloadConfig::default();
    let mut decompiler = "a".to_owned();
    let mut disasm = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            });
            i += 1;
            v
        };
        match flag {
            "--out" | "-o" => out = Some(value()),
            "--format" | "-f" => format = value(),
            "--seed" => {
                let seed = value().parse().expect("--seed takes a number");
                config.seed = seed;
                stack_config.seed = seed;
            }
            "--classes" => config.classes = value().parse().expect("--classes takes a number"),
            "--interfaces" => {
                config.interfaces = value().parse().expect("--interfaces takes a number")
            }
            "--functions" => {
                stack_config.functions = value().parse().expect("--functions takes a number")
            }
            "--globals" => {
                stack_config.globals = value().parse().expect("--globals takes a number")
            }
            "--decompiler" | "-d" => decompiler = value(),
            "--disasm" => disasm = true,
            "--help" | "-h" => {
                println!(
                    "usage: gen --out bench.lbrc [--format classfile|stackvm] [--seed N] [--classes N] [--interfaces N] [--functions N] [--globals N] [--decompiler a|b|c|all] [--disasm]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let bytes = match format.as_str() {
        "classfile" => {
            let bugs = bugset_by_name(&decompiler);
            config.plant = bugs.kinds().to_vec();
            let program = generate(&config);
            let oracle = DecompilerOracle::new(&program, bugs);
            eprintln!(
                "generated: {} classes, {} bytes; decompiler {decompiler} produces {} errors",
                program.len(),
                program_byte_size(&program),
                oracle.error_count()
            );
            if disasm {
                print!("{}", disassemble_program(&program));
            }
            write_program(&program)
        }
        "stackvm" => {
            let bugs = stack_bugset_by_name(&decompiler);
            stack_config.plant = bugs.kinds().to_vec();
            let module = generate_stack(&stack_config);
            let oracle = StackOracle::new(&module, bugs);
            eprintln!(
                "generated: {} functions, {} globals, {} bytes; lowering {decompiler} produces {} errors",
                module.functions.len(),
                module.globals.len(),
                module_byte_size(&module),
                oracle.baseline().len()
            );
            if disasm {
                println!("{module:#?}");
            }
            write_module(&module)
        }
        other => {
            eprintln!("unknown format {other} (classfile|stackvm)");
            std::process::exit(2);
        }
    };
    match out {
        Some(path) => {
            std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => {
            if !disasm {
                eprintln!("no --out given; use --disasm to print instead");
                std::process::exit(2);
            }
        }
    }
}

fn bugset_by_name(name: &str) -> BugSet {
    match name {
        "a" => BugSet::decompiler_a(),
        "b" => BugSet::decompiler_b(),
        "c" => BugSet::decompiler_c(),
        "all" => BugSet::all(),
        other => {
            eprintln!("unknown decompiler {other} (a|b|c|all)");
            std::process::exit(2);
        }
    }
}

fn stack_bugset_by_name(name: &str) -> StackBugSet {
    match name {
        "a" => StackBugSet::lowering_a(),
        "b" => StackBugSet::lowering_b(),
        "c" => StackBugSet::lowering_c(),
        "all" => StackBugSet::all(),
        other => {
            eprintln!("unknown decompiler {other} (a|b|c|all)");
            std::process::exit(2);
        }
    }
}
