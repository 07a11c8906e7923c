//! `tbstc-cli` — command-line access to the TB-STC reproduction.
//!
//! ```text
//! tbstc-cli prune    [--rows 128] [--cols 128] [--sparsity 0.75] [--block 8] [--seed 0]
//! tbstc-cli formats  [--rows 128] [--cols 128] [--sparsity 0.75] [--seed 0]
//! tbstc-cli simulate [--model bert|resnet50|resnet18|opt|llama|gcn] [--arch tb-stc|stc|vegeta|highlight|rm-stc|tc]
//!                    [--sparsity 0.75] [--bandwidth 64] [--seed 0] [--json]
//! tbstc-cli sweep    [--models ...] [--archs ...] [--sparsities ...] [--json]
//! tbstc-cli serve    [--addr 127.0.0.1:7878] [--cache-dir .tbstc-cache] [--oneshot --job FILE]
//! tbstc-cli submit   --job FILE [--addr 127.0.0.1:7878]
//! tbstc-cli lint     [--deny-warnings] [--json] [--root DIR]
//! tbstc-cli table3
//! tbstc-cli models
//! ```

mod args;
mod commands;

use std::process::ExitCode;

use args::ParsedArgs;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{}", commands::USAGE);
        return ExitCode::SUCCESS;
    }
    let parsed = match ParsedArgs::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::run(&parsed) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
