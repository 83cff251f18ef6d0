//! The `mncube` binary: parse, execute, print.

use std::process::ExitCode;

use mn_campaign::Knobs;
use mn_cli::{execute, Command};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Command::parse(&args, Knobs::get()).and_then(|cmd| execute(&cmd)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mncube: {e}");
            eprintln!("try 'mncube help'");
            ExitCode::FAILURE
        }
    }
}
