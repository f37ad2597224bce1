//! `experiments` — regenerate the tutorial's quantitative claims.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- e10-range
//! cargo run --release -p bench --bin experiments -- serve evented
//! ```
//!
//! `serve evented` runs one filter server on an ephemeral
//! loopback port until stdin reaches EOF (E24 uses it to spawn real
//! separate server processes for the cluster sweep).

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "all".to_string());
    let ok = if arg == "serve" {
        let kind = args.next().unwrap_or_else(|| "evented".to_string());
        bench::experiments::evented_exp::serve_child(&kind)
    } else {
        bench::run(&arg)
    };
    if !ok {
        eprintln!(
            "unknown experiment '{arg}'; use e1..e27 (e.g. e10-range), 'all', \
             or 'serve evented'"
        );
        std::process::exit(1);
    }
}
