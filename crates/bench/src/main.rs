//! `experiments` — regenerate the tutorial's quantitative claims.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- e10-range
//! EXPERIMENTS_QUICK=1 cargo run --release -p bench --bin experiments -- e22
//! cargo run --release -p bench --bin experiments -- serve evented
//! ```
//!
//! The exit status is non-zero when a gate that ran failed or the id
//! is unknown. `serve evented` runs one filter server on an ephemeral
//! loopback port until stdin reaches EOF (E24 uses it to spawn real
//! separate server processes for the cluster sweep).

use bench::harness;

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "all".to_string());
    let verdict = if arg == "serve" {
        let kind = args.next().unwrap_or_else(|| "evented".to_string());
        bench::experiments::evented_exp::serve_child(&kind).then_some(true)
    } else {
        harness::run(&arg)
    };
    match verdict {
        Some(true) => {}
        Some(false) => {
            eprintln!("a gate failed");
            std::process::exit(1);
        }
        None => {
            eprintln!("unknown experiment '{arg}'\n{}", harness::usage());
            std::process::exit(1);
        }
    }
}
